package uvm

import (
	"fmt"
	"strings"

	"guvm/internal/digest"
	"guvm/internal/gpumem"
	"guvm/internal/mem"
)

// BlockAudit is the audit view of one VABlock's driver-side state.
type BlockAudit struct {
	ID        mem.VABlockID
	Resident  mem.PageSet
	Populated mem.PageSet
	HasChunk  bool
	Chunk     gpumem.ChunkID
	DMAMapped bool
	LastTouch int
	AllocSeq  int
	Evictions int
	// RemoteMapped marks pages GPU-mapped into host memory (the
	// access-counter architecture); always empty elsewhere.
	RemoteMapped mem.PageSet
}

// AuditState is the canonical snapshot of the driver: every known VABlock
// (ascending ID), the chunk-allocation order, capacity accounting, the
// adaptive batch state, and the accumulated statistics.
type AuditState struct {
	Blocks []BlockAudit
	// AllocatedOrder is d.allocated in order: the LRU/FIFO victim scan
	// sequence. Every listed block must hold a chunk.
	AllocatedOrder []mem.VABlockID
	ChunksInUse    int
	CapacityBlocks int
	EffBatch       int
	BatchCount     int
	NextSeq        int
	Sleeping       bool
	InBatch        bool
	// Dead reports device-loss: the driver re-homed its pages and parked
	// (rehome.go). Dead drivers must hold no chunks.
	Dead  bool
	Stats Stats
}

// ResidentPages sums GPU-resident pages across blocks.
func (st *AuditState) ResidentPages() int {
	n := 0
	for i := range st.Blocks {
		n += st.Blocks[i].Resident.Count()
	}
	return n
}

// ChunkOwner reports the VABlock backing a live chunk, resolving through
// the physical allocator (for the chunk-ownership bijection check).
func (d *Driver) ChunkOwner(id gpumem.ChunkID) (mem.VABlockID, bool) {
	return d.pmm.Owner(id)
}

// AuditState captures the canonical driver state for auditing.
func (d *Driver) AuditState() AuditState {
	st := AuditState{Blocks: make([]BlockAudit, 0, d.blocks.Len())}
	d.AuditStateInto(&st)
	return st
}

// AuditStateInto refills st with the canonical driver state, reusing the
// capacity of its Blocks and AllocatedOrder slices: an auditor checking
// every batch keeps one AuditState as scratch instead of allocating a
// fresh snapshot per batch. The refilled slices are valid until the next
// refill.
func (d *Driver) AuditStateInto(st *AuditState) {
	blocks, order := st.Blocks[:0], st.AllocatedOrder[:0]
	*st = AuditState{
		ChunksInUse:    d.pmm.InUse(),
		CapacityBlocks: d.cfg.CapacityBlocks(),
		EffBatch:       d.effBatch,
		BatchCount:     d.batchCount,
		NextSeq:        d.nextSeq,
		Sleeping:       d.sleeping,
		InBatch:        d.inBatch,
		Dead:           d.dead,
		Stats:          d.stats,
	}
	// BlockDir ranges in ascending ID order — exactly the canonical
	// order the former sorted-keys walk produced.
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		blocks = append(blocks, BlockAudit{
			ID:           b.id,
			Resident:     b.resident,
			Populated:    b.populated,
			HasChunk:     b.hasChunk,
			Chunk:        b.chunk,
			DMAMapped:    b.dmaMapped,
			LastTouch:    b.lastTouch,
			AllocSeq:     b.allocSeq,
			Evictions:    b.evictions,
			RemoteMapped: b.remoteMapped,
		})
		return true
	})
	for _, b := range d.allocated {
		order = append(order, b.id)
	}
	st.Blocks, st.AllocatedOrder = blocks, order
}

// Digest returns the FNV-1a digest of the canonical driver state: the
// fields of AuditState, in its order, hashed straight from the block
// directory so a snapshot allocates nothing.
func (d *Driver) Digest() uint64 {
	h := digest.New()
	h = h.Int(d.blocks.Len())
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		h = h.Uint64(uint64(b.id))
		h = h.Words(b.resident[:])
		h = h.Words(b.populated[:])
		h = h.Bool(b.hasChunk)
		if b.hasChunk {
			h = h.Int(int(b.chunk))
		}
		h = h.Bool(b.dmaMapped)
		h = h.Int(b.lastTouch).Int(b.allocSeq).Int(b.evictions)
		// Remote mappings fold in only when present, keeping host-driven
		// digests bit-identical to their pre-lift goldens.
		if b.remoteMapped.Any() {
			h = h.Words(b.remoteMapped[:])
		}
		return true
	})
	h = h.Int(len(d.allocated))
	for _, b := range d.allocated {
		h = h.Uint64(uint64(b.id))
	}
	h = h.Int(d.pmm.InUse()).Int(d.cfg.CapacityBlocks())
	h = h.Int(d.effBatch).Int(d.batchCount).Int(d.nextSeq)
	h = h.Bool(d.sleeping).Bool(d.inBatch)
	s := &d.stats
	h = h.Int(s.Batches).Int(s.TotalFaults).Int(s.StaleFaults).Int(s.Evictions)
	h = h.Int(s.PrefetchedPages).Int(s.CrossBlockPages).Int(s.MigratedPages)
	h = h.Int(s.WakeUps).Int(s.SpuriousWakeUps)
	h = h.Int(s.AsyncUnmapCalls).Int64(int64(s.AsyncUnmapTime))
	h = h.Int(s.MigRetries).Int(s.HostAllocFailures).Int(s.BatchShrinks)
	h = h.Uint64(s.ExplicitBytes).Uint64(s.InjMigRetryBytes)
	// Architecture telemetry folds in only when non-zero (host-driven
	// runs never touch it).
	if s.RemoteMappedPages != 0 || s.CounterPromotions != 0 {
		h = h.Int(s.RemoteMappedPages).Int(s.CounterPromotions)
	}
	// Hardware fault-domain state folds in only when the domain is
	// attached, so default runs keep their historical digests.
	if d.hw != nil {
		h = h.Bool(d.dead)
		h = h.Int(s.HWLinkRetries).Int(s.DegradedShrinks)
		h = h.Uint64(s.HWRetryToGPUBytes).Uint64(s.HWRetryToHostBytes)
		h = h.Int(s.RehomedBlocks).Int(s.RehomedPages).Uint64(s.RehomedBytes)
		h = h.Int(s.ResidentAtKill)
	}
	return h.Sum()
}

// Dump renders the audit state for divergence diagnostics.
func (st AuditState) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "uvm: %d blocks known, %d/%d chunks in use, effBatch %d, batch %d, stats %+v\n",
		len(st.Blocks), st.ChunksInUse, st.CapacityBlocks, st.EffBatch, st.BatchCount, st.Stats)
	for i := range st.Blocks {
		blk := &st.Blocks[i]
		fmt.Fprintf(&b, "  block %d: resident %d, populated %d, chunk %v",
			blk.ID, blk.Resident.Count(), blk.Populated.Count(), blk.HasChunk)
		if blk.HasChunk {
			fmt.Fprintf(&b, " (#%d)", blk.Chunk)
		}
		if n := blk.RemoteMapped.Count(); n > 0 {
			fmt.Fprintf(&b, ", remote %d", n)
		}
		fmt.Fprintf(&b, ", dma %v, lastTouch %d, seq %d, evictions %d\n",
			blk.DMAMapped, blk.LastTouch, blk.AllocSeq, blk.Evictions)
	}
	return b.String()
}
