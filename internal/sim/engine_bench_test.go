package sim

import "testing"

// BenchmarkEngineDispatch measures the steady-state cost of the engine's
// schedule/pop/dispatch cycle with a realistic number of outstanding
// events. Each op is one event dispatch; -benchmem exposes the per-event
// allocation behaviour the event free list is meant to eliminate.
func BenchmarkEngineDispatch(b *testing.B) {
	const outstanding = 64
	e := NewEngine()
	remaining := b.N
	tick := func(self *func()) func() {
		return func() {
			if remaining <= 0 {
				return
			}
			remaining--
			e.Schedule(Microsecond, *self)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < outstanding; i++ {
		var fn func()
		fn = tick(&fn)
		e.Schedule(Time(i), fn)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineDispatchBurst measures dispatch under the simulator's
// measured traffic shape: ~600 pending events spread over ~14 distinct
// instants, so almost every dispatch shares the previous event's
// timestamp (a replay waking every stalled warp at once). Token i
// reschedules itself (1 + i%14) µs ahead, which keeps 14 instants live
// with ~43 events each. Each op is one event dispatch.
func BenchmarkEngineDispatchBurst(b *testing.B) {
	const (
		outstanding = 600
		instants    = 14
	)
	e := NewEngine()
	remaining := b.N
	tick := func(self *func(), delay Time) func() {
		return func() {
			if remaining <= 0 {
				return
			}
			remaining--
			e.Schedule(delay, *self)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < outstanding; i++ {
		var fn func()
		fn = tick(&fn, Time(1+i%instants)*Microsecond)
		e.Schedule(0, fn)
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
