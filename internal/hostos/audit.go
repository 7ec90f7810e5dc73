package hostos

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/mem"
)

// MappingAudit is the audit view of one VABlock's live CPU mappings.
type MappingAudit struct {
	Block mem.VABlockID
	// Pages marks the pages holding live CPU PTEs.
	Pages mem.PageSet
	// Threads is the bitmask of CPU threads that touched the mapping.
	Threads uint64
}

// AuditState is the canonical snapshot of the host VM model: every block
// with live CPU mappings (ascending block order), the radix-tree shape,
// and the accumulated statistics.
type AuditState struct {
	Mappings   []MappingAudit
	RadixNodes int
	DMANext    uint64
	Stats      Stats
}

// MappedPages returns a copy of the live-CPU-mapping page set of block.
func (vm *VM) MappedPages(block mem.VABlockID) mem.PageSet {
	if bm := vm.mapped.Lookup(block); bm != nil {
		return bm.pages
	}
	return mem.PageSet{}
}

// AuditState captures the canonical state of the host VM for auditing.
func (vm *VM) AuditState() AuditState {
	st := AuditState{
		RadixNodes: vm.dma.Nodes(),
		DMANext:    vm.dmaNext,
		Stats:      vm.stats,
	}
	// BlockDir ranges in ascending block order — the canonical order the
	// former sorted-keys walk produced. Blocks whose mappings were fully
	// torn down stay in the directory but are skipped, as before.
	vm.mapped.Range(func(b mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			st.Mappings = append(st.Mappings, MappingAudit{
				Block:   b,
				Pages:   bm.pages,
				Threads: bm.threads,
			})
		}
		return true
	})
	return st
}

// Digest returns the FNV-1a digest of the canonical host VM state: the
// fields of AuditState, in its order, hashed straight from the mapping
// directory so a snapshot allocates nothing. Two runs of the same
// configuration must produce identical digests at every batch boundary.
func (vm *VM) Digest() uint64 {
	live := 0
	vm.mapped.Range(func(_ mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			live++
		}
		return true
	})
	h := digest.New()
	h = h.Int(live)
	vm.mapped.Range(func(b mem.VABlockID, bm *blockMapping) bool {
		if bm.pages.Any() {
			h = h.Uint64(uint64(b))
			h = h.Words(bm.pages[:])
			h = h.Uint64(bm.threads)
		}
		return true
	})
	h = h.Int(vm.dma.Nodes())
	h = h.Uint64(vm.dmaNext)
	s := &vm.stats
	h = h.Int(s.UnmapCalls).Int(s.PagesUnmapped).Int(s.PagesPopulated)
	h = h.Int(s.DMAPagesMapped).Int(s.RadixNodes).Int(s.PopulateFailures)
	h = h.Int64(int64(s.UnmapTime)).Int64(int64(s.PopulateTime)).Int64(int64(s.DMAMapTime))
	return h.Sum()
}

// Dump renders the audit state for divergence diagnostics.
func (st AuditState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostos: %d mapped blocks, %d radix nodes, stats %+v\n",
		len(st.Mappings), st.RadixNodes, st.Stats)
	for i := range st.Mappings {
		m := &st.Mappings[i]
		fmt.Fprintf(&b, "  block %d: %d CPU-mapped pages, threads %#x\n",
			m.Block, m.Pages.Count(), m.Threads)
	}
	return b.String()
}
