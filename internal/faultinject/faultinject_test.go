package faultinject

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"guvm/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"drop rate > 1", func(c *Config) { c.BufferDropRate = 1.5 }},
		{"negative drop rate", func(c *Config) { c.BufferDropRate = -0.1 }},
		{"migrate rate > 1", func(c *Config) { c.MigrateFailRate = 2 }},
		{"host rate > 1", func(c *Config) { c.HostAllocFailRate = 1.01 }},
		{"negative drop retries", func(c *Config) { c.BufferDropRetries = -1 }},
		{"negative migrate retries", func(c *Config) { c.MigrateMaxRetries = -1 }},
		{"negative host retries", func(c *Config) { c.HostAllocMaxRetries = -2 }},
		{"negative retry delay", func(c *Config) { c.BufferRetryDelay = -1 }},
		{"negative backoff", func(c *Config) { c.MigrateBackoff = -5 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted bad config", tc.name)
		}
	}
}

func TestEnabled(t *testing.T) {
	if DefaultConfig().Enabled() {
		t.Fatal("default (all-zero-rate) config reports enabled")
	}
	cfg := DefaultConfig()
	cfg.MigrateFailRate = 0.01
	if !cfg.Enabled() {
		t.Fatal("non-zero rate reports disabled")
	}
	var nilInj *Injector
	if nilInj.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.ShouldDropFault() || in.HostAllocFails() {
		t.Fatal("nil injector injected")
	}
	if f, fatal := in.MigrateFailures(); f != 0 || fatal {
		t.Fatal("nil injector planned migration failures")
	}
	if in.BufferRetryBudget() != 0 || in.BufferRetryDelay() != 0 ||
		in.HostAllocRetryBudget() != 0 || in.MigrateBackoffFor(3) != 0 {
		t.Fatal("nil injector returned non-zero budgets")
	}
	in.NoteRetried(BufferDrop)
	in.NoteRecovered(Migrate)
	in.NoteUnrecovered(HostAlloc)
	if in.Stats() != (Stats{}) {
		t.Fatal("nil injector accumulated stats")
	}
}

func TestZeroRateDrawsNothing(t *testing.T) {
	// A zero-rate category must not consume RNG state, so running with an
	// inert injector is bit-identical to running with none.
	in, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if in.ShouldDropFault() || in.HostAllocFails() {
			t.Fatal("zero-rate injector injected")
		}
		if f, _ := in.MigrateFailures(); f != 0 {
			t.Fatal("zero-rate injector planned failures")
		}
	}
	if in.Stats() != (Stats{}) {
		t.Fatalf("zero-rate injector counted: %+v", in.Stats())
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	cfg.BufferDropRate = 0.3
	cfg.MigrateFailRate = 0.25
	cfg.HostAllocFailRate = 0.2
	run := func() ([]bool, []int, Stats) {
		in, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var drops []bool
		var migs []int
		for i := 0; i < 500; i++ {
			drops = append(drops, in.ShouldDropFault())
			f, _ := in.MigrateFailures()
			migs = append(migs, f)
			in.HostAllocFails()
		}
		return drops, migs, in.Stats()
	}
	d1, m1, s1 := run()
	d2, m2, s2 := run()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(m1, m2) || s1 != s2 {
		t.Fatal("same seed+config produced diverging injection sequences")
	}
}

func TestCategoryStreamsIndependent(t *testing.T) {
	// Drawing from one category must not shift another category's stream.
	cfg := DefaultConfig()
	cfg.BufferDropRate = 0.5
	cfg.MigrateFailRate = 0.5
	a, _ := New(cfg)
	b, _ := New(cfg)
	// a interleaves migrate draws; b does not.
	var da, db []bool
	for i := 0; i < 200; i++ {
		da = append(da, a.ShouldDropFault())
		a.MigrateFailures()
	}
	for i := 0; i < 200; i++ {
		db = append(db, b.ShouldDropFault())
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatal("migrate draws perturbed the buffer-drop stream")
	}
}

func TestMigrateFailuresAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrateFailRate = 1.0 // every attempt fails: always fatal
	cfg.MigrateMaxRetries = 3
	in, _ := New(cfg)
	f, fatal := in.MigrateFailures()
	if !fatal {
		t.Fatal("rate-1.0 migration was not fatal")
	}
	if f != 4 { // initial attempt + 3 retries
		t.Fatalf("failures = %d, want 4", f)
	}
	s := in.Stats().Migrate
	if s.Injected != 4 || s.Retried != 3 || s.Unrecovered != 1 || s.Recovered != 0 {
		t.Fatalf("counters = %+v, want {4 3 0 1}", s)
	}
}

func TestMigrateRecoveredCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrateFailRate = 0.5
	cfg.MigrateMaxRetries = 20 // virtually never fatal at rate 0.5
	in, _ := New(cfg)
	sawRecovery := false
	for i := 0; i < 200; i++ {
		f, fatal := in.MigrateFailures()
		if fatal {
			t.Fatal("fatal at rate 0.5 with 20 retries (p = 2^-21 per op)")
		}
		if f > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Fatal("200 ops at rate 0.5 injected nothing")
	}
	s := in.Stats().Migrate
	if s.Recovered == 0 || s.Injected == 0 {
		t.Fatalf("recovery not counted: %+v", s)
	}
	if s.Injected != s.Retried { // every non-fatal failure is retried
		t.Fatalf("injected (%d) != retried (%d) though nothing was fatal", s.Injected, s.Retried)
	}
}

func TestMigrateBackoffDoubles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigrateBackoff = 10 * sim.Microsecond
	in, _ := New(cfg)
	for i := 0; i < 4; i++ {
		want := cfg.MigrateBackoff << uint(i)
		if got := in.MigrateBackoffFor(i); got != want {
			t.Fatalf("backoff[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestNoteCounters(t *testing.T) {
	in, _ := New(DefaultConfig())
	in.NoteRetried(BufferDrop)
	in.NoteRetried(BufferDrop)
	in.NoteRecovered(BufferDrop)
	in.NoteUnrecovered(HostAlloc)
	s := in.Stats()
	if s.BufferDrop.Retried != 2 || s.BufferDrop.Recovered != 1 {
		t.Fatalf("buffer-drop counters = %+v", s.BufferDrop)
	}
	if s.HostAlloc.Unrecovered != 1 {
		t.Fatalf("host-alloc counters = %+v", s.HostAlloc)
	}
	if s.Of(BufferDrop) != s.BufferDrop || s.Of(Migrate) != s.Migrate {
		t.Fatal("Stats.Of disagrees with fields")
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		BufferDrop:    "buffer-drop",
		Migrate:       "migrate",
		HostAlloc:     "host-alloc",
		Category(200): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// TestInjectorConcurrentCounters hammers the outcome reporters and Stats
// from many goroutines at once. Under -race (scripts/check.sh runs the
// suite that way) this is the regression test for the plain-uint64
// counters the injector used before the sweepd service layer started
// reporting outcomes from worker pools; the final tallies must also be
// exact, since atomic increments cannot lose updates.
func TestInjectorConcurrentCounters(t *testing.T) {
	const (
		goroutines = 15 // divisible by numCategories for exact tallies
		iters      = 500
	)
	in, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := Category(g % int(numCategories))
			for i := 0; i < iters; i++ {
				in.NoteRetried(c)
				in.NoteRecovered(c)
				if i%5 == 0 {
					in.NoteUnrecovered(c)
				}
				if i%7 == 0 {
					_ = in.Stats() // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()

	s := in.Stats()
	perCat := uint64(goroutines / int(numCategories) * iters)
	for _, c := range []Category{BufferDrop, Migrate, HostAlloc} {
		got := s.Of(c)
		if got.Retried != perCat || got.Recovered != perCat {
			t.Errorf("%s: retried/recovered = %d/%d, want %d/%d",
				c, got.Retried, got.Recovered, perCat, perCat)
		}
		if want := perCat / 5; got.Unrecovered != want {
			t.Errorf("%s: unrecovered = %d, want %d", c, got.Unrecovered, want)
		}
	}
}

// TestServiceInjectorDeterminism checks the service-layer contract: the
// same (seed, point digest, attempt) always draws the same verdict, the
// fail limit guarantees an uninjected attempt for bounded retry budgets,
// and decisions are independent of call order (worker interleaving).
func TestServiceInjectorDeterminism(t *testing.T) {
	cfg := ServiceConfig{
		Seed:           7,
		PointFailRate:  1,
		PointFailLimit: 2,
		SlowPointRate:  1,
		SlowPointDelay: 123 * time.Millisecond,
	}
	a, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewService(cfg)

	points := []uint64{0xdeadbeef, 0x12345678, 0xfeedface}
	// Draw in forward order on a, reverse order on b: verdicts must agree.
	type verdict struct {
		fail  bool
		delay time.Duration
	}
	got := map[[2]uint64]verdict{}
	for _, p := range points {
		for attempt := 0; attempt < 4; attempt++ {
			f, d := a.PointAttempt(p, attempt)
			got[[2]uint64{p, uint64(attempt)}] = verdict{f, d}
			if attempt < cfg.PointFailLimit && !f {
				t.Errorf("point %x attempt %d: not failed despite rate 1 under limit", p, attempt)
			}
			if attempt >= cfg.PointFailLimit && f {
				t.Errorf("point %x attempt %d: failed past PointFailLimit", p, attempt)
			}
			if d != cfg.SlowPointDelay {
				t.Errorf("point %x attempt %d: delay %v, want %v", p, attempt, d, cfg.SlowPointDelay)
			}
		}
	}
	for i := len(points) - 1; i >= 0; i-- {
		for attempt := 3; attempt >= 0; attempt-- {
			f, d := b.PointAttempt(points[i], attempt)
			want := got[[2]uint64{points[i], uint64(attempt)}]
			if f != want.fail || d != want.delay {
				t.Errorf("point %x attempt %d: order-dependent verdict (%v,%v) vs (%v,%v)",
					points[i], attempt, f, d, want.fail, want.delay)
			}
		}
	}

	st := a.Stats()
	if want := uint64(len(points) * cfg.PointFailLimit); st.FailedAttempts != want {
		t.Errorf("FailedAttempts = %d, want %d", st.FailedAttempts, want)
	}
	if want := uint64(len(points) * 4); st.SlowedAttempts != want {
		t.Errorf("SlowedAttempts = %d, want %d", st.SlowedAttempts, want)
	}

	// Nil and inert injectors never inject.
	var nilInj *ServiceInjector
	if f, d := nilInj.PointAttempt(1, 0); f || d != 0 {
		t.Error("nil injector injected")
	}
	inert, _ := NewService(ServiceConfig{Seed: 9})
	if inert.Enabled() {
		t.Error("zero-rate config reports Enabled")
	}
	if f, d := inert.PointAttempt(1, 0); f || d != 0 {
		t.Error("inert injector injected")
	}
}

// TestServiceConfigValidate rejects out-of-range service injection knobs.
func TestServiceConfigValidate(t *testing.T) {
	bad := []ServiceConfig{
		{PointFailRate: -0.1},
		{PointFailRate: 1.5},
		{SlowPointRate: 2},
		{PointFailLimit: -1},
		{SlowPointDelay: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := NewService(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := NewService(ServiceConfig{}); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
}

// TestRatesRejectedInEveryConfig sets each rate field of the three
// injection configs to NaN, below 0 and above 1: every Validate must
// reject all three, naming the field.
func TestRatesRejectedInEveryConfig(t *testing.T) {
	cases := []struct {
		field    string
		validate func(rate float64) error
	}{
		{"BufferDropRate", func(r float64) error { return Config{BufferDropRate: r}.Validate() }},
		{"MigrateFailRate", func(r float64) error { return Config{MigrateFailRate: r}.Validate() }},
		{"HostAllocFailRate", func(r float64) error { return Config{HostAllocFailRate: r}.Validate() }},
		{"PointFailRate", func(r float64) error { return ServiceConfig{PointFailRate: r}.Validate() }},
		{"SlowPointRate", func(r float64) error { return ServiceConfig{SlowPointRate: r}.Validate() }},
		{"LinkDegradeRate", func(r float64) error { return HardwareConfig{LinkDegradeRate: r}.Validate() }},
		{"LinkFlapRate", func(r float64) error { return HardwareConfig{LinkFlapRate: r}.Validate() }},
		{"FlapDropRate", func(r float64) error { return HardwareConfig{FlapDropRate: r}.Validate() }},
	}
	for _, c := range cases {
		for _, rate := range []float64{math.NaN(), -0.1, 1.1} {
			err := c.validate(rate)
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %v: Validate() = %v, want a rejection naming the field", c.field, rate, err)
			}
		}
	}
}
