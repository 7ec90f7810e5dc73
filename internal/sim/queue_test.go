package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// refHeap is the pre-calendar-queue binary heap, kept verbatim as the
// ordering oracle: the event queue must pop in exactly this heap's
// (at, seq) order on every schedule stream.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// lockstep feeds one schedule stream to the event queue and the heap
// oracle, stamping seq and clamping to now the way Engine.newEvent does.
type lockstep struct {
	t   testing.TB
	q   eventQueue
	rh  refHeap
	seq uint64
	now Time
}

// push schedules an event at the clamped time and returns its seq.
func (l *lockstep) push(at Time) uint64 {
	if at < l.now {
		at = l.now
	}
	l.seq++
	l.q.Push(&event{at: at, seq: l.seq})
	heap.Push(&l.rh, &event{at: at, seq: l.seq})
	return l.seq
}

// pop pops both queues and fails on the first divergence in (at, seq).
func (l *lockstep) pop() *event {
	l.t.Helper()
	want := heap.Pop(&l.rh).(*event)
	got := l.q.PopMin()
	if got == nil {
		l.t.Fatalf("eventQueue empty, refHeap has (at=%d, seq=%d)", want.at, want.seq)
	}
	if got.at != want.at || got.seq != want.seq {
		l.t.Fatalf("pop order diverged: eventQueue (at=%d, seq=%d), refHeap (at=%d, seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	if got.at > l.now {
		l.now = got.at
	}
	return got
}

// drain pops everything and checks both queues empty together.
func (l *lockstep) drain() {
	l.t.Helper()
	for l.rh.Len() > 0 {
		l.pop()
	}
	if l.q.PopMin() != nil || l.q.size != 0 {
		l.t.Fatal("eventQueue non-empty after refHeap drained")
	}
}

// drive pushes/pops both queues in lockstep over a random delay mix.
// Interleaved pops exercise same-instant appends, behind-the-newest
// inserts and front-slot drains the way a live engine does.
func drive(t *testing.T, rng *rand.Rand, ops int) {
	t.Helper()
	l := &lockstep{t: t}
	for i := 0; i < ops; i++ {
		if l.rh.Len() > 0 && rng.Intn(2) == 0 {
			l.pop()
			continue
		}
		// Delay mixture: zero-delay ties, tight clusters, millisecond
		// jumps, and rare far-future outliers.
		var d Time
		switch rng.Intn(10) {
		case 0:
			d = 0
		case 1, 2, 3, 4:
			d = Time(rng.Intn(2000))
		case 5, 6, 7:
			d = Time(rng.Intn(int(Millisecond)))
		case 8:
			d = Time(rng.Intn(int(Second)))
		default:
			d = MaxTime - l.now - Time(rng.Intn(1000)) // saturation region
		}
		l.push(l.now + d)
	}
	l.drain()
}

// TestEventQueueMatchesHeapOrder is the side-by-side property test: on
// randomized schedule streams the event queue and the binary-heap
// oracle must agree on every single pop.
func TestEventQueueMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		drive(t, rng, 2000)
	}
}

// TestEventQueueManyInstants holds many distinct instants live at once:
// 64 periodic timers with distinct periods, plus bursts landing
// between them. That keeps the slot slice long, so mid-slice inserts,
// front-slot inserts and head-offset compaction all run against the
// oracle.
func TestEventQueueManyInstants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := &lockstep{t: t}
		period := map[uint64]Time{}
		for i := 0; i < 64; i++ {
			p := Time(100 + 37*i)
			period[l.push(Time(rng.Intn(int(p))))] = p
		}
		maxLive := 0
		for i := 0; i < 20000; i++ {
			if rng.Intn(8) == 0 {
				at := l.now + Time(rng.Intn(3000))
				for k := rng.Intn(40); k >= 0; k-- {
					l.push(at)
				}
			}
			ev := l.pop()
			if p, ok := period[ev.seq]; ok {
				delete(period, ev.seq)
				period[l.push(l.now+p)] = p
			}
			if live := len(l.q.slots) - l.q.first; live > maxLive {
				maxLive = live
			}
		}
		if maxLive < 64 {
			t.Fatalf("seed %d: at most %d distinct instants were live, want >= 64", seed, maxLive)
		}
		l.drain()
	}
}

// TestEventQueueZeroDelayFIFO pins the tie-break contract in isolation:
// events at one instant pop in scheduling order.
func TestEventQueueZeroDelayFIFO(t *testing.T) {
	var q eventQueue
	const n = 100
	for i := 1; i <= n; i++ {
		q.Push(&event{at: 42, seq: uint64(i)})
	}
	for i := 1; i <= n; i++ {
		ev := q.PopMin()
		if ev == nil || ev.seq != uint64(i) {
			t.Fatalf("tie-break broken at pop %d: got %+v", i, ev)
		}
	}
}

// TestEventQueuePopMinUntil checks the deadline-bounded pop: events past
// the deadline stay queued and pop later in order.
func TestEventQueuePopMinUntil(t *testing.T) {
	var q eventQueue
	times := []Time{5, 10, 10, 3 * Millisecond, MaxTime}
	for i, at := range times {
		q.Push(&event{at: at, seq: uint64(i + 1)})
	}
	var got []Time
	for {
		ev := q.PopMinUntil(Millisecond)
		if ev == nil {
			break
		}
		got = append(got, ev.at)
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 10 {
		t.Fatalf("PopMinUntil(1ms) returned %v, want [5 10 10]", got)
	}
	if q.size != 2 {
		t.Fatalf("events past deadline must stay queued: size %d, want 2", q.size)
	}
	if ev := q.PopMin(); ev == nil || ev.at != 3*Millisecond {
		t.Fatalf("post-deadline pop got %+v, want at=3ms", ev)
	}
	if ev := q.PopMin(); ev == nil || ev.at != MaxTime {
		t.Fatalf("final pop got %+v, want at=MaxTime", ev)
	}
}

// TestScheduleOverflowSaturates is the regression test for the
// time-overflow bug: now+delay wrapping negative used to clamp the
// event to the present, firing a far-future event immediately. It must
// saturate at MaxTime and stay pending past any finite deadline.
func TestScheduleOverflowSaturates(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Fatalf("clock at %d, want 10", e.Now())
	}

	fired := false
	near := false
	e.Schedule(MaxTime, func() { fired = true }) // now+MaxTime overflows
	e.Schedule(Microsecond, func() { near = true })
	if _, err := e.RunUntil(e.Now() + Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("overflowed far-future event fired within a 1s horizon")
	}
	if !near {
		t.Fatal("near event did not fire")
	}
	if e.Pending() != 1 {
		t.Fatalf("saturated event must stay pending: Pending() = %d", e.Pending())
	}

	// The saturated event still fires eventually, at the end of time.
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("saturated event never fired on an unbounded run")
	}
	if e.Now() != MaxTime {
		t.Fatalf("clock at %d, want MaxTime", e.Now())
	}
	if MaxTime != Time(math.MaxInt64) {
		t.Fatal("MaxTime must be the maximum Time")
	}
}

// TestEventFreeListBounded is the regression test for the free-list
// leak: after a run with a huge pending peak, the recycle list must not
// retain more than maxFreeEvents structs. The same holds for the
// queue's spare FIFOs and slot array after a run with thousands of
// distinct instants and one oversized burst.
func TestEventFreeListBounded(t *testing.T) {
	e := NewEngine()
	const n = 8 * maxFreeEvents
	for i := 0; i < n; i++ {
		e.Schedule(Time(i), func() {})
	}
	for i := 0; i < 4*maxSpareFIFOCap; i++ {
		e.Schedule(n, func() {})
	}
	peakSpare, peakCap := 0, 0
	e.Schedule(n+1, func() {
		peakSpare = len(e.q.spare)
		for _, evs := range e.q.spare {
			peakCap = max(peakCap, cap(evs))
		}
	})
	if want := n + 4*maxSpareFIFOCap + 1; e.Pending() != want {
		t.Fatalf("Pending() = %d, want %d", e.Pending(), want)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peakSpare <= maxSpareFIFOs || peakCap <= maxSpareFIFOCap {
		t.Fatalf("run never exceeded the spare caps (peak %d FIFOs, cap %d); the test proves nothing", peakSpare, peakCap)
	}
	if len(e.free) > maxFreeEvents {
		t.Fatalf("free list holds %d events after the run, cap is %d", len(e.free), maxFreeEvents)
	}
	if len(e.q.spare) > maxSpareFIFOs {
		t.Fatalf("spare list holds %d FIFOs after the run, cap is %d", len(e.q.spare), maxSpareFIFOs)
	}
	for _, evs := range e.q.spare {
		if cap(evs) > maxSpareFIFOCap {
			t.Fatalf("spare FIFO of capacity %d retained, cap is %d", cap(evs), maxSpareFIFOCap)
		}
	}
	if cap(e.q.slots) > maxIdleSlots {
		t.Fatalf("drained queue retains a %d-slot array, cap is %d", cap(e.q.slots), maxIdleSlots)
	}
}

// TestScheduleArgOrdering checks that arg-carrying events share the
// same (at, seq) ordering and panic isolation as closure events.
func TestScheduleArgOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.ScheduleArg(5, func(v any) { order = append(order, v.(int)) }, 1)
	e.Schedule(5, func() { order = append(order, 2) })
	e.ScheduleArg(0, func(v any) { order = append(order, v.(int)) }, 0)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("dispatch order %v, want [0 1 2]", order)
	}

	e2 := NewEngine()
	e2.ScheduleArg(0, func(any) { panic("boom") }, nil)
	if _, err := e2.Run(); err == nil {
		t.Fatal("panic in arg callback must surface as the run error")
	}
}
