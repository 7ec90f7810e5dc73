package gpu

import (
	"testing"
	"testing/quick"

	"guvm/internal/mem"
	"guvm/internal/sim"
)

func TestFaultBufferPushFetch(t *testing.T) {
	b := NewFaultBuffer(10)
	for i := 0; i < 5; i++ {
		if !b.Push(Fault{Page: mem.PageID(i)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("len = %d", b.Len())
	}
	got := b.FetchInto(nil, 3)
	if len(got) != 3 || got[0].Page != 0 || got[2].Page != 2 {
		t.Fatalf("fetch = %v", got)
	}
	if b.Len() != 2 {
		t.Fatalf("len after fetch = %d", b.Len())
	}
	rest := b.FetchInto(nil, 100)
	if len(rest) != 2 || rest[0].Page != 3 {
		t.Fatalf("rest = %v", rest)
	}
}

// FetchInto appends after the caller's entries and, with room in dst,
// reads the buffer without allocating.
func TestFaultBufferFetchIntoAppends(t *testing.T) {
	b := NewFaultBuffer(10)
	for i := 0; i < 4; i++ {
		b.Push(Fault{Page: mem.PageID(i)})
	}
	dst := make([]Fault, 1, 16)
	dst[0].Page = 99
	dst = b.FetchInto(dst, 3)
	if len(dst) != 4 || dst[0].Page != 99 || dst[1].Page != 0 || dst[3].Page != 2 {
		t.Fatalf("FetchInto = %v", dst)
	}
	if b.Len() != 1 {
		t.Fatalf("len after fetch = %d", b.Len())
	}
	allocs := testing.AllocsPerRun(50, func() {
		b.Push(Fault{Page: 7})
		dst = b.FetchInto(dst[:0], 16)
	})
	if allocs != 0 {
		t.Fatalf("FetchInto into a roomy dst allocated %.0f times", allocs)
	}
}

func TestFaultBufferOverflowDrops(t *testing.T) {
	b := NewFaultBuffer(2)
	b.Push(Fault{Page: 1})
	b.Push(Fault{Page: 2})
	if b.Push(Fault{Page: 3}) {
		t.Fatal("push beyond capacity succeeded")
	}
	if b.Dropped != 1 {
		t.Fatalf("Dropped = %d", b.Dropped)
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
}

func TestFaultBufferFlush(t *testing.T) {
	b := NewFaultBuffer(10)
	for i := 0; i < 7; i++ {
		b.Push(Fault{Page: mem.PageID(i)})
	}
	if n := b.Flush(); n != 7 {
		t.Fatalf("Flush = %d", n)
	}
	if b.Len() != 0 || b.Flushed != 7 {
		t.Fatalf("post-flush state: len=%d flushed=%d", b.Len(), b.Flushed)
	}
	if n := b.Flush(); n != 0 {
		t.Fatalf("empty Flush = %d", n)
	}
}

func TestFaultBufferPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFaultBuffer(0)
}

// Property: FIFO order is preserved across arbitrary push/fetch sequences.
func TestFaultBufferFIFO(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewFaultBuffer(1 << 16)
		nextIn := 0
		nextOut := 0
		for _, o := range ops {
			if o%3 == 0 {
				got := b.FetchInto(nil, int(o%7)+1)
				for _, ft := range got {
					if ft.Page != mem.PageID(nextOut) {
						return false
					}
					nextOut++
				}
			} else {
				b.Push(Fault{Page: mem.PageID(nextIn)})
				nextIn++
			}
		}
		return b.Len() == nextIn-nextOut
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Pushed - Flushed - Dropped - fetched = Len.
func TestFaultBufferAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewFaultBuffer(32)
		fetched := 0
		var dst []Fault
		for i, o := range ops {
			switch o % 4 {
			case 0:
				dst = b.FetchInto(dst[:0], 3)
				fetched += len(dst)
			case 1:
				b.Flush()
			default:
				b.Push(Fault{Page: mem.PageID(i)})
			}
		}
		return b.Pushed-b.Flushed-fetched == b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" ||
		AccessPrefetch.String() != "prefetch" {
		t.Fatal("AccessKind strings wrong")
	}
	if AccessKind(99).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestPageRange(t *testing.T) {
	pr := PageRange(10, 3)
	if len(pr) != 3 || pr[0] != 10 || pr[2] != 12 {
		t.Fatalf("PageRange = %v", pr)
	}
	if len(PageRange(0, 0)) != 0 {
		t.Fatal("empty PageRange not empty")
	}
}

func TestOpConstructors(t *testing.T) {
	r := Read(2, 5, 6)
	if r.Kind != OpRead || r.Dst != 2 || len(r.Pages) != 2 {
		t.Fatalf("Read = %+v", r)
	}
	w := Write([]int{1, 2}, 9)
	if w.Kind != OpWrite || len(w.Deps) != 2 || w.Pages[0] != 9 {
		t.Fatalf("Write = %+v", w)
	}
	p := Prefetch(1, 2, 3)
	if p.Kind != OpPrefetch || len(p.Pages) != 3 {
		t.Fatalf("Prefetch = %+v", p)
	}
	c := Compute(100, 1)
	if c.Kind != OpCompute || c.Dur != 100 || c.Deps[0] != 1 {
		t.Fatalf("Compute = %+v", c)
	}
}

func TestAccessCountersDisabledByDefault(t *testing.T) {
	c := NewAccessCounters()
	c.record(mem.PageID(5))
	if c.Total() != 0 || c.Enabled() {
		t.Fatal("disabled counters recorded accesses")
	}
	c.Enable()
	c.record(mem.PageID(5))
	c.record(mem.PageID(6))              // same VABlock
	c.record(mem.VABlockID(3).PageAt(0)) // another block
	if got := c.Read(mem.PageID(5).VABlock()); got != 2 {
		t.Fatalf("block count = %d, want 2", got)
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d, want 3", c.Total())
	}
	c.Clear(mem.PageID(5).VABlock())
	if c.Read(mem.PageID(5).VABlock()) != 0 || c.Total() != 1 {
		t.Fatal("Clear wrong")
	}
}

func TestDeviceCountsResidentAccesses(t *testing.T) {
	eng := sim.NewEngine()
	f, dev := newFakeDriver(eng, smallConfig())
	dev.Counters.Enable()
	for i := mem.PageID(0); i < 8; i++ {
		f.resident[i] = true
	}
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{{Read(0, PageRange(0, 8)...), Read(1, PageRange(0, 8)...)}}
	}}, func() {})
	run(t, eng)
	if got := dev.Counters.Read(0); got != 16 {
		t.Fatalf("counter = %d, want 16 (two passes over 8 resident pages)", got)
	}
}

func TestDeviceCountsExcludeFaults(t *testing.T) {
	eng := sim.NewEngine()
	_, dev := newFakeDriver(eng, smallConfig())
	dev.Counters.Enable()
	dev.LaunchKernel(Kernel{NumBlocks: 1, BlockProgram: func(int) []Program {
		return []Program{{Read(0, PageRange(0, 8)...)}}
	}}, func() {})
	run(t, eng)
	// First touches fault; the only counted accesses would be re-reads,
	// which this kernel doesn't perform.
	if got := dev.Counters.Total(); got != 0 {
		t.Fatalf("counters = %d, want 0 for all-faulting kernel", got)
	}
}
