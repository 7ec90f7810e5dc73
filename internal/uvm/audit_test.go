package uvm

import (
	"reflect"
	"testing"

	"guvm/internal/digest"
	"guvm/internal/faultinject"
	"guvm/internal/mem"
)

// refDigest is the original Driver.Digest, which hashed a fresh
// AuditState; the direct walk over the block directory must match it.
func refDigest(st *AuditState, hw bool) uint64 {
	h := digest.New()
	h = h.Int(len(st.Blocks))
	for i := range st.Blocks {
		b := &st.Blocks[i]
		h = h.Uint64(uint64(b.ID))
		h = h.Words(b.Resident[:])
		h = h.Words(b.Populated[:])
		h = h.Bool(b.HasChunk)
		if b.HasChunk {
			h = h.Int(int(b.Chunk))
		}
		h = h.Bool(b.DMAMapped)
		h = h.Int(b.LastTouch).Int(b.AllocSeq).Int(b.Evictions)
		if b.RemoteMapped.Any() {
			h = h.Words(b.RemoteMapped[:])
		}
	}
	h = h.Int(len(st.AllocatedOrder))
	for _, id := range st.AllocatedOrder {
		h = h.Uint64(uint64(id))
	}
	h = h.Int(st.ChunksInUse).Int(st.CapacityBlocks)
	h = h.Int(st.EffBatch).Int(st.BatchCount).Int(st.NextSeq)
	h = h.Bool(st.Sleeping).Bool(st.InBatch)
	s := st.Stats
	h = h.Int(s.Batches).Int(s.TotalFaults).Int(s.StaleFaults).Int(s.Evictions)
	h = h.Int(s.PrefetchedPages).Int(s.CrossBlockPages).Int(s.MigratedPages)
	h = h.Int(s.WakeUps).Int(s.SpuriousWakeUps)
	h = h.Int(s.AsyncUnmapCalls).Int64(int64(s.AsyncUnmapTime))
	h = h.Int(s.MigRetries).Int(s.HostAllocFailures).Int(s.BatchShrinks)
	h = h.Uint64(s.ExplicitBytes).Uint64(s.InjMigRetryBytes)
	if s.RemoteMappedPages != 0 || s.CounterPromotions != 0 {
		h = h.Int(s.RemoteMappedPages).Int(s.CounterPromotions)
	}
	if hw {
		h = h.Bool(st.Dead)
		h = h.Int(s.HWLinkRetries).Int(s.DegradedShrinks)
		h = h.Uint64(s.HWRetryToGPUBytes).Uint64(s.HWRetryToHostBytes)
		h = h.Int(s.RehomedBlocks).Int(s.RehomedPages).Uint64(s.RehomedBytes)
		h = h.Int(s.ResidentAtKill)
	}
	return h.Sum()
}

// TestAuditStateIntoAndDigest runs an oversubscribed kernel, then checks
// that refilling a scratch state left over from a larger snapshot yields
// exactly a fresh AuditState, and that Digest — with and without the
// hardware domain attached, before and after re-homing — equals the hash
// of that state.
func TestAuditStateIntoAndDigest(t *testing.T) {
	ucfg := noPrefetch()
	ucfg.GPUMemBytes = 4 * mem.VABlockSize
	eng, drv, dev := newSystem(smallGPU(), ucfg)
	npages := 6 * mem.PagesPerVABlock
	base := drv.Alloc(uint64(npages) * mem.PageSize)
	runKernel(t, eng, dev, streamKernel(base, npages))

	fresh := drv.AuditState()
	if len(fresh.Blocks) < 6 || len(fresh.AllocatedOrder) == 0 || fresh.Stats.Evictions == 0 {
		t.Fatalf("setup: %d blocks, %d allocated, %d evictions", len(fresh.Blocks),
			len(fresh.AllocatedOrder), fresh.Stats.Evictions)
	}
	scratch := AuditState{
		Blocks:         make([]BlockAudit, 40),
		AllocatedOrder: make([]mem.VABlockID, 30),
		ChunksInUse:    99,
		Dead:           true,
	}
	for i := range scratch.Blocks {
		scratch.Blocks[i] = BlockAudit{ID: mem.VABlockID(1000 + i), HasChunk: true}
	}
	drv.AuditStateInto(&scratch)
	if !reflect.DeepEqual(scratch, fresh) {
		t.Fatalf("refilled scratch differs from a fresh snapshot:\n%s\nvs\n%s", scratch.Dump(), fresh.Dump())
	}
	if got, want := drv.Digest(), refDigest(&fresh, false); got != want {
		t.Fatalf("Digest = %#x, AuditState hash %#x", got, want)
	}

	hw, err := faultinject.NewHardware(faultinject.HardwareConfig{})
	if err != nil {
		t.Fatal(err)
	}
	drv.SetHardware(hw)
	if got, want := drv.Digest(), refDigest(&fresh, true); got != want {
		t.Fatalf("hardware-attached Digest = %#x, AuditState hash %#x", got, want)
	}
	drv.RehomeToHost()
	st := drv.AuditState()
	if !st.Dead || st.Stats.RehomedPages == 0 {
		t.Fatalf("setup: re-homing left dead=%v, %d re-homed pages", st.Dead, st.Stats.RehomedPages)
	}
	if got, want := drv.Digest(), refDigest(&st, true); got != want {
		t.Fatalf("re-homed Digest = %#x, AuditState hash %#x", got, want)
	}
}
