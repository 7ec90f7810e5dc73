package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelDeterminism runs fig08 plus the table generators (which
// share the memoized table-run set through the single-flight cache) at
// -jobs 1 and -jobs 8 and requires byte-identical artifacts: identical
// rendered bytes imply identical digests in identical collection order.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	ids := []string{"fig08", "table2", "table3"}
	var gens []Generator
	for _, id := range ids {
		g, ok := Find(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		gens = append(gens, g)
	}

	runAt := func(jobs int) []string {
		ResetCache() // force full recomputation, not a cached replay
		var digests []string
		if err := RunParallel(context.Background(), gens, jobs, func(r RunResult) {
			if r.Err != nil {
				t.Errorf("jobs=%d: %s failed: %v", jobs, r.Gen.ID, r.Err)
				return
			}
			if r.Index != len(digests) {
				t.Errorf("jobs=%d: collected index %d out of order (want %d)",
					jobs, r.Index, len(digests))
			}
			digests = append(digests, artifactDigest(r.Artifact))
		}); err != nil {
			t.Errorf("jobs=%d: RunParallel returned %v with live context", jobs, err)
		}
		return digests
	}

	seq := runAt(1)
	par := runAt(8)
	if len(seq) != len(ids) || len(par) != len(ids) {
		t.Fatalf("collected %d/%d artifacts, want %d", len(seq), len(par), len(ids))
	}
	for i, id := range ids {
		if seq[i] != par[i] {
			t.Errorf("%s: artifact digest differs between -jobs 1 (%s) and -jobs 8 (%s)",
				id, seq[i], par[i])
		}
	}
}

// TestForEachOrderedCollectsInOrder checks the ordered-collection
// contract at several worker counts, including jobs > n and jobs <= 0.
func TestForEachOrderedCollectsInOrder(t *testing.T) {
	const n = 100
	for _, jobs := range []int{-1, 1, 3, 8, n + 7} {
		var got []int
		ForEachOrdered(context.Background(), n, jobs, func(i int) int { return i * i }, func(i, v int) {
			if v != i*i {
				t.Fatalf("jobs=%d: index %d got %d, want %d", jobs, i, v, i*i)
			}
			got = append(got, i)
		})
		if len(got) != n {
			t.Fatalf("jobs=%d: collected %d results, want %d", jobs, len(got), n)
		}
		for i, idx := range got {
			if idx != i {
				t.Fatalf("jobs=%d: collection order %v not ascending", jobs, got[:i+1])
			}
		}
	}
}

// TestSingleFlightHammer hammers one memo cell from 16 goroutines: every
// caller of one cache generation must observe the same value, and the
// compute function must run exactly once per generation no matter how
// many callers pile in. Run under -race (scripts/check.sh does) this is
// the regression test for the old unguarded tableRunCache map.
func TestSingleFlightHammer(t *testing.T) {
	const (
		goroutines = 16
		iters      = 200
	)
	var m memo[int]
	var calls atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v, err := m.Do(func() (int, error) {
					return int(calls.Add(1)), nil
				})
				if err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
				if v < 1 || v > int(calls.Load()) {
					t.Errorf("value %d outside generation range", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one generation, want 1", got)
	}

	// Reset storms from many goroutines must stay race-free and every
	// generation must still compute through the single-flight path.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if g%2 == 0 {
					m.Reset()
					continue
				}
				if _, err := m.Do(func() (int, error) {
					return int(calls.Add(1)), nil
				}); err != nil {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// ResetCache itself must be callable concurrently (it was a bare map
	// write before the single-flight rework).
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ResetCache()
			}
		}()
	}
	wg.Wait()
}

// TestSingleFlightErrorNotCached verifies a failed computation is retried
// while a successful one is cached.
func TestSingleFlightErrorNotCached(t *testing.T) {
	var m memo[string]
	boom := errors.New("boom")
	calls := 0
	fail := func() (string, error) { calls++; return "", fmt.Errorf("attempt %d: %w", calls, boom) }
	if _, err := m.Do(fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := m.Do(fail); !errors.Is(err, boom) {
		t.Fatalf("retry err = %v, want boom", err)
	}
	if calls != 2 {
		t.Fatalf("failed compute cached: ran %d times, want 2", calls)
	}
	ok := func() (string, error) { calls++; return "v", nil }
	if v, err := m.Do(ok); err != nil || v != "v" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	if v, err := m.Do(ok); err != nil || v != "v" {
		t.Fatalf("cached Do = %q, %v", v, err)
	}
	if calls != 3 {
		t.Fatalf("successful compute not cached: ran %d times, want 3", calls)
	}
}

// TestForEachOrderedCancellation checks the graceful-drain contract: a
// cancellation mid-run collects a contiguous prefix of started items
// (in-flight work finishes, unstarted work is skipped) and returns the
// context error; a pre-canceled context starts nothing.
func TestForEachOrderedCancellation(t *testing.T) {
	const n = 64
	for _, jobs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		var collected []int
		err := ForEachOrdered(ctx, n, jobs, func(i int) int {
			if started.Add(1) == 5 {
				cancel() // cancel mid-run from a worker
			}
			return i
		}, func(i, v int) {
			collected = append(collected, i)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("jobs=%d: err = %v, want context.Canceled", jobs, err)
		}
		if len(collected) == n {
			t.Fatalf("jobs=%d: cancellation collected the full set", jobs)
		}
		for i, idx := range collected {
			if idx != i {
				t.Fatalf("jobs=%d: collected %v is not a contiguous prefix", jobs, collected)
			}
		}
		// Everything started must have been collected: no lost in-flight work.
		if int32(len(collected)) != started.Load() {
			t.Fatalf("jobs=%d: started %d items but collected %d", jobs, started.Load(), len(collected))
		}
	}

	// Pre-canceled context: nothing runs at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachOrdered(ctx, 8, 4, func(i int) int { ran = true; return i },
		func(int, int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
	if ran {
		t.Fatal("pre-canceled context still ran work")
	}

	// A nil context behaves as context.Background().
	count := 0
	if err := ForEachOrdered(nil, 8, 4, func(i int) int { return i },
		func(int, int) { count++ }); err != nil || count != 8 {
		t.Fatalf("nil ctx: err=%v count=%d", err, count)
	}
}
