package sweepd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"guvm/internal/faultinject"
	"guvm/internal/sweepd/store"
)

// testConfig keeps unit-test sweeps fast: tiny backoff, generous
// timeouts, a small pool.
func testConfig() Config {
	return Config{
		Workers:      4,
		QueueCap:     8,
		JobDeadline:  30 * time.Second,
		PointTimeout: 10 * time.Second,
		PointRetries: 3,
		RetryBase:    time.Millisecond,
		RetryMax:     5 * time.Millisecond,
		Seed:         1,
	}
}

// smallSpec is a 4-point grid over a 1 MiB stream workload.
func smallSpec() JobSpec {
	return JobSpec{
		Workload: "stream",
		MB:       1,
		Batches:  []int{128, 256},
		CapsMB:   []int{2, 32},
	}
}

func newTestService(t *testing.T, cfg Config, inj *faultinject.ServiceInjector) *Service {
	t.Helper()
	st, _, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(st, nil, inj, cfg)
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// waitState polls until the job reaches a terminal state and returns its
// final view.
func waitState(t *testing.T, s *Service, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		v, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		switch v.State {
		case JobDone, JobFailed, JobInterrupted:
			if v.State != want {
				t.Fatalf("job %s finished %s (%s), want %s", id, v.State, v.Error, want)
			}
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func rowsOf(s *Service, id string) []PointRow {
	j := s.lookupJob(id)
	rows, _, _ := s.rowsSince(j, 0)
	return rows
}

// TestSubmitAndComplete runs one small job and checks the result stream
// is the full grid, in grid order, with state digests that match fresh
// out-of-service simulations.
func TestSubmitAndComplete(t *testing.T) {
	s := newTestService(t, testConfig(), nil)
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if v.Points != 4 {
		t.Fatalf("points = %d, want 4", v.Points)
	}
	fin := waitState(t, s, v.ID, JobDone)
	if fin.Completed != 4 || fin.Failed != 0 || fin.Cached != 0 {
		t.Fatalf("final view = %+v", fin)
	}
	pts, _ := smallSpec().Points()
	rows := rowsOf(s, v.ID)
	for i, row := range rows {
		if row.Point != pts[i] {
			t.Fatalf("row %d out of grid order: got %+v want %+v", i, row.Point, pts[i])
		}
		fresh, state, err := SimulatePoint(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if row.StateDigest != fmt.Sprintf("%016x", state) {
			t.Fatalf("row %d state digest %s != fresh %016x", i, row.StateDigest, state)
		}
		if row.KernelMS != fresh.KernelMS || row.Faults != fresh.Faults {
			t.Fatalf("row %d diverged from fresh sim: %+v vs %+v", i, row, fresh)
		}
	}
}

// TestCacheHitBitIdentical resubmits the same grid and requires every
// point to come from the store with digests and payloads identical to
// the first run — and zero new simulations.
func TestCacheHitBitIdentical(t *testing.T) {
	s := newTestService(t, testConfig(), nil)
	v1, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v1.ID, JobDone)
	simsBefore := s.mPointsSim.Value()

	v2, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, v2.ID, JobDone)
	if fin.Cached != 4 {
		t.Fatalf("cached = %d, want 4", fin.Cached)
	}
	if got := s.mPointsSim.Value(); got != simsBefore {
		t.Fatalf("cache hits still simulated: %v -> %v", simsBefore, got)
	}
	first, second := rowsOf(s, v1.ID), rowsOf(s, v2.ID)
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("row %d not marked cached", i)
		}
		a, b := first[i], second[i]
		a.Cached, b.Cached = false, false
		a.Attempts, b.Attempts = 0, 0
		if a != b {
			t.Fatalf("cached row %d differs from original:\n  %+v\n  %+v", i, a, b)
		}
	}
}

// TestRetryRecovers injects failures on every point's first two attempts
// and checks bounded retry rides them out.
func TestRetryRecovers(t *testing.T) {
	inj, err := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		PointFailRate:  1.0,
		PointFailLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, testConfig(), inj)
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, JobDone)
	for i, row := range rowsOf(s, v.ID) {
		if row.Attempts != 3 {
			t.Fatalf("row %d attempts = %d, want 3 (two injected failures)", i, row.Attempts)
		}
	}
	if got := s.mRetries.Value(); got != 8 {
		t.Fatalf("retries counter = %v, want 8 (2 x 4 points)", got)
	}
}

// TestRetryExhaustion makes every attempt fail: the job must finish
// JobFailed with per-row errors naming the injected failure, not hang.
func TestRetryExhaustion(t *testing.T) {
	inj, err := faultinject.NewService(faultinject.ServiceConfig{
		Seed:          7,
		PointFailRate: 1.0, // no limit: every attempt dies
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.PointRetries = 1
	s := newTestService(t, cfg, inj)
	v, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, v.ID, JobFailed)
	if fin.Failed != 4 {
		t.Fatalf("failed = %d, want 4", fin.Failed)
	}
	for i, row := range rowsOf(s, v.ID) {
		if !strings.Contains(row.Error, "injected worker failure") || row.Attempts != 2 {
			t.Fatalf("row %d = %+v, want 2 attempts ending in injected failure", i, row)
		}
	}
}

// TestPointTimeout stalls every attempt past the per-point timeout with
// zero retries: the point must fail with ErrPointTimeout, and Drain must
// still collect the abandoned attempt goroutines.
func TestPointTimeout(t *testing.T) {
	inj, err := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.PointTimeout = 30 * time.Millisecond
	cfg.PointRetries = 0
	s := newTestService(t, cfg, inj)
	v, err := s.Submit(JobSpec{Workload: "stream", MB: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, v.ID, JobFailed)
	if fin.Failed != 1 {
		t.Fatalf("failed = %d, want 1", fin.Failed)
	}
	if row := rowsOf(s, v.ID)[0]; !strings.Contains(row.Error, "timed out") {
		t.Fatalf("row error = %q, want point timeout", row.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after abandoned attempts: %v", err)
	}
}

// TestOverloadShedding fills the job queue behind a stalled runner and
// checks the typed-error ladder: accepted, then ErrQueueFull, then (for
// a backlog past the high watermark) ErrBreakerOpen — and that draining
// leaks no goroutines.
func TestOverloadShedding(t *testing.T) {
	inj, err := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: time.Minute, // stall every attempt; drain cancels the sleep
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Workers = 2
	cfg.QueueCap = 2
	cfg.BreakerHigh = 6
	cfg.BreakerLow = 2
	s := newTestService(t, cfg, inj)

	one := JobSpec{Workload: "stream", MB: 1} // 1 point each
	if _, err := s.Submit(one); err != nil {
		t.Fatalf("job 1 (running): %v", err)
	}
	// Give the runner a moment to pop job 1 off the queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.Health().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never picked up job 1")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(one); err != nil {
		t.Fatalf("job 2 (queued): %v", err)
	}
	if _, err := s.Submit(smallSpec()); err != nil { // 4 points: backlog 1+1+4 = 6 >= high
		t.Fatalf("job 3 (queued): %v", err)
	}
	if _, err := s.Submit(one); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job 4 = %v, want ErrQueueFull", err)
	}
	h := s.Health()
	if !h.BreakerOpen || h.BacklogPoints != 6 {
		t.Fatalf("health = %+v, want open breaker at backlog 6", h)
	}
	// Queue drained below cap would still hit the breaker: prove the
	// breaker check is reachable by draining one queue slot... the queue
	// is still full here, so the queue error wins; what must hold is that
	// shedding never admits: accepted stays at 3.
	if got := s.mJobsAccepted.Value(); got != 3 {
		t.Fatalf("accepted = %v, want 3", got)
	}
	if got := s.mJobsShed.Value(); got != 1 {
		t.Fatalf("shed = %v, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(one); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	// Every job the service accepted must be terminal now.
	for _, v := range s.Jobs() {
		if v.State != JobInterrupted && v.State != JobFailed && v.State != JobDone {
			t.Fatalf("job %s left %s after drain", v.ID, v.State)
		}
	}
	// No goroutine leaks: workers, runner, and abandoned attempts all
	// exit. Allow scheduler slack.
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBreakerSheds opens the breaker with a big queued backlog while the
// queue itself still has room, and checks Submit reports ErrBreakerOpen.
func TestBreakerSheds(t *testing.T) {
	inj, _ := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: time.Minute,
	})
	cfg := testConfig()
	cfg.QueueCap = 16
	cfg.BreakerHigh = 4
	cfg.BreakerLow = 1
	s := newTestService(t, cfg, inj)
	if _, err := s.Submit(smallSpec()); err != nil { // 4 points -> backlog at high watermark
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Workload: "stream", MB: 1}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit = %v, want ErrBreakerOpen", err)
	}
}

// TestJobDeadline gives a stalled job a 30ms deadline and requires a
// JobFailed verdict that names the deadline, with the backlog released.
func TestJobDeadline(t *testing.T) {
	inj, _ := faultinject.NewService(faultinject.ServiceConfig{
		Seed:           7,
		SlowPointRate:  1.0,
		SlowPointDelay: time.Minute,
	})
	s := newTestService(t, testConfig(), inj)
	v, err := s.Submit(JobSpec{Workload: "stream", MB: 1, DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, s, v.ID, JobFailed)
	if !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("error = %q, want deadline verdict", fin.Error)
	}
	if h := s.Health(); h.BacklogPoints != 0 {
		t.Fatalf("backlog not released: %+v", h)
	}
}

// TestResumeRecoveredJob journals a job, "crashes" (reopens the store),
// resumes it on a fresh service, and checks it completes under its
// original ID with fresh IDs numbered past it.
func TestResumeRecoveredJob(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BeginJob("job-7", []byte(`{"workload":"stream","mb":1}`)); err != nil {
		t.Fatal(err)
	}
	st.Close() // crash boundary: admitted, never run

	st2, rec, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(rec.IncompleteJobs) != 1 {
		t.Fatalf("incomplete jobs = %+v", rec.IncompleteJobs)
	}
	s := New(st2, nil, nil, testConfig())
	n, errs := s.Resume(rec.IncompleteJobs)
	if n != 1 || len(errs) != 0 {
		t.Fatalf("resume = %d jobs, errs %v", n, errs)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	fin := waitState(t, s, "job-7", JobDone)
	if !fin.Recovered {
		t.Fatal("resumed job not flagged recovered")
	}
	v, err := s.Submit(JobSpec{Workload: "stream", MB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-8" {
		t.Fatalf("fresh ID after resume = %s, want job-8", v.ID)
	}
}

// TestResumeSkipsBadSpec: a journaled job whose spec no longer passes
// admission is reported and skipped on restart, never run.
func TestResumeSkipsBadSpec(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.BeginJob("job-1", []byte(`{"workload":"sgemm","n":1000}`)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, rec, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s := New(st2, nil, nil, testConfig())
	if n, errs := s.Resume(rec.IncompleteJobs); n != 0 || len(errs) != 1 {
		t.Fatalf("resume = %d jobs, errs %v; want 0 jobs, 1 error", n, errs)
	}
}

// TestBadSpecRejected exercises admission validation.
func TestBadSpecRejected(t *testing.T) {
	s := newTestService(t, testConfig(), nil)
	for _, spec := range []JobSpec{
		{Workload: "no-such-workload"},
		{Workload: "stream", Evict: []string{"no-such-policy"}},
		{Workload: "stream", Batches: []int{-1}},
		{Workload: "sgemm", N: 1000}, // not a multiple of the 256 tile
		{Workload: "sgemm", N: -8},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Fatalf("spec %+v admitted", spec)
		}
	}
	cfg := testConfig()
	cfg.MaxPointsPerJob = 2
	s2 := newTestService(t, cfg, nil)
	if _, err := s2.Submit(smallSpec()); !errors.Is(err, ErrTooManyPoints) {
		t.Fatalf("oversize grid = %v, want ErrTooManyPoints", err)
	}
}

// TestBackoffDeterministic pins the retry schedule to (seed, digest,
// attempt) alone.
func TestBackoffDeterministic(t *testing.T) {
	for attempt := 1; attempt <= 4; attempt++ {
		a := backoffFor(1, 42, attempt, 50*time.Millisecond, 2*time.Second)
		b := backoffFor(1, 42, attempt, 50*time.Millisecond, 2*time.Second)
		if a != b {
			t.Fatalf("attempt %d: %v != %v", attempt, a, b)
		}
		lo := 50 * time.Millisecond << uint(attempt-1)
		if lo > 2*time.Second {
			lo = 2 * time.Second
		}
		if a < lo || a >= lo+50*time.Millisecond {
			t.Fatalf("attempt %d backoff %v outside [%v, %v)", attempt, a, lo, lo+50*time.Millisecond)
		}
	}
	if x, y := backoffFor(1, 42, 1, 50*time.Millisecond, time.Second), backoffFor(1, 43, 1, 50*time.Millisecond, time.Second); x == y {
		t.Fatalf("different digests share jitter %v", x)
	}
}
