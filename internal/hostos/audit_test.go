package hostos

import (
	"testing"

	"guvm/internal/digest"
	"guvm/internal/mem"
)

// refDigest is the original VM.Digest, which hashed a fresh AuditState;
// the direct walk over the mapping directory must match it.
func refDigest(st *AuditState) uint64 {
	h := digest.New()
	h = h.Int(len(st.Mappings))
	for i := range st.Mappings {
		m := &st.Mappings[i]
		h = h.Uint64(uint64(m.Block))
		h = h.Words(m.Pages[:])
		h = h.Uint64(m.Threads)
	}
	h = h.Int(st.RadixNodes)
	h = h.Uint64(st.DMANext)
	s := st.Stats
	h = h.Int(s.UnmapCalls).Int(s.PagesUnmapped).Int(s.PagesPopulated)
	h = h.Int(s.DMAPagesMapped).Int(s.RadixNodes).Int(s.PopulateFailures)
	h = h.Int64(int64(s.UnmapTime)).Int64(int64(s.PopulateTime)).Int64(int64(s.DMAMapTime))
	return h.Sum()
}

// TestDigestMatchesAuditState checks Digest against the hash of a fresh
// AuditState as CPU mappings appear, DMA mappings grow the radix tree,
// and a block's mappings are torn down (left in the directory, skipped).
func TestDigestMatchesAuditState(t *testing.T) {
	vm := NewVM(DefaultCostModel())
	check := func(step string) {
		t.Helper()
		st := vm.AuditState()
		if got, want := vm.Digest(), refDigest(&st); got != want {
			t.Fatalf("%s: Digest = %#x, AuditState hash %#x", step, got, want)
		}
	}
	check("empty")
	for b := mem.VABlockID(1); b <= 5; b++ {
		for i := 0; i < int(b)*7; i++ {
			vm.TouchCPU(b, i, i%3)
		}
	}
	check("touched")
	vm.MapDMA(2)
	vm.MapDMA(700)
	check("dma-mapped")
	vm.UnmapMappingRange(3)
	if _, err := vm.Populate(9); err != nil {
		t.Fatal(err)
	}
	if st := vm.AuditState(); len(st.Mappings) != 4 {
		t.Fatalf("setup: %d live mappings after one teardown, want 4", len(st.Mappings))
	}
	check("torn down")
}
