package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"

	"guvm/internal/sim"
)

// Service-layer injection: where the core Injector perturbs the *model*
// (fault buffers, migrations, host allocations) inside one simulation,
// the ServiceInjector perturbs the *experiment service* around it — the
// sweepd workers that run sweep points. It can make a point attempt fail
// before the simulation starts (a crashed worker) or stall for a fixed
// wall-clock delay (a slow point), which is how the service's retry,
// backoff and timeout envelope is exercised deterministically in tests
// and chaos harnesses.
//
// Decisions are keyed by (point config digest, attempt index) through an
// independent SplitMix64 draw rather than a shared sequential stream, so
// they are reproducible no matter how a worker pool interleaves points —
// the same point at the same attempt always gets the same verdict.
// Service injection never touches the simulation itself: a point that
// eventually runs produces the exact same state digest as one that was
// never injected against, and the chaos harness asserts exactly that.

// Per-decision seed salts (distinct odd constants, like the core
// injector's category salts).
const (
	saltPointFail = 0xd6e8feb86659fd93
	saltPointSlow = 0x8a5cd789635d2dff
)

// ServiceConfig holds the service-layer injection knobs. The zero value
// (all rates zero) injects nothing.
type ServiceConfig struct {
	// Seed derives every decision; decisions also fold in the point's
	// config digest and the attempt index.
	Seed uint64

	// PointFailRate is the probability in [0, 1] that one attempt to run
	// a sweep point fails before the simulation starts, as if the worker
	// had crashed.
	PointFailRate float64
	// PointFailLimit bounds injected failures to attempt indices below
	// it, so a bounded retry budget can still succeed: with limit L, the
	// L-th retry is guaranteed uninjected. 0 means every attempt is
	// eligible.
	PointFailLimit int

	// SlowPointRate is the probability in [0, 1] that one attempt stalls
	// for SlowPointDelay of wall-clock time before the simulation starts
	// (exercising the per-point timeout).
	SlowPointRate float64
	// SlowPointDelay is the stall charged to a slow attempt.
	SlowPointDelay time.Duration
}

// Enabled reports whether any service-layer category can inject.
func (c ServiceConfig) Enabled() bool {
	return c.PointFailRate > 0 || c.SlowPointRate > 0
}

// Validate checks the configuration for values injection cannot run with.
func (c ServiceConfig) Validate() error {
	if err := checkRate("PointFailRate", c.PointFailRate); err != nil {
		return err
	}
	if err := checkRate("SlowPointRate", c.SlowPointRate); err != nil {
		return err
	}
	switch {
	case c.PointFailLimit < 0:
		return fmt.Errorf("faultinject: PointFailLimit = %d, need >= 0", c.PointFailLimit)
	case c.SlowPointDelay < 0:
		return fmt.Errorf("faultinject: SlowPointDelay = %v, need >= 0", c.SlowPointDelay)
	}
	return nil
}

// ServiceStats aggregates service-layer injection outcomes.
type ServiceStats struct {
	// FailedAttempts counts point attempts injected to fail.
	FailedAttempts uint64
	// SlowedAttempts counts point attempts injected to stall.
	SlowedAttempts uint64
}

// ServiceInjector makes deterministic service-layer injection decisions.
// All methods are nil-receiver safe and safe from any goroutine.
type ServiceInjector struct {
	cfg    ServiceConfig
	failed atomic.Uint64
	slowed atomic.Uint64
}

// NewService builds a service-layer injector. The returned injector is
// inert (but non-nil) when no rate is set.
func NewService(cfg ServiceConfig) (*ServiceInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ServiceInjector{cfg: cfg}, nil
}

// Config returns the injector's configuration (zero value on nil).
func (si *ServiceInjector) Config() ServiceConfig {
	if si == nil {
		return ServiceConfig{}
	}
	return si.cfg
}

// Enabled reports whether any category can inject.
func (si *ServiceInjector) Enabled() bool { return si != nil && si.cfg.Enabled() }

// Stats returns a copy of the outcome counters.
func (si *ServiceInjector) Stats() ServiceStats {
	if si == nil {
		return ServiceStats{}
	}
	return ServiceStats{
		FailedAttempts: si.failed.Load(),
		SlowedAttempts: si.slowed.Load(),
	}
}

// PointAttempt draws the injection plan for one sweep-point attempt:
// whether the attempt fails as a crashed worker, and how long it stalls
// first. Keyed by (pointDigest, attempt), so a retried point gets an
// independent — but reproducible — verdict per attempt.
func (si *ServiceInjector) PointAttempt(pointDigest uint64, attempt int) (fail bool, delay time.Duration) {
	if si == nil {
		return false, 0
	}
	if si.cfg.SlowPointRate > 0 && draw(si.cfg.Seed^saltPointSlow, pointDigest, attempt) < si.cfg.SlowPointRate {
		si.slowed.Add(1)
		delay = si.cfg.SlowPointDelay
	}
	if si.cfg.PointFailRate > 0 && (si.cfg.PointFailLimit == 0 || attempt < si.cfg.PointFailLimit) &&
		draw(si.cfg.Seed^saltPointFail, pointDigest, attempt) < si.cfg.PointFailRate {
		si.failed.Add(1)
		fail = true
	}
	return fail, delay
}

// draw maps (seed, pointDigest, attempt) to an independent uniform value
// in [0, 1) through a freshly seeded SplitMix64 stream.
func draw(seed, pointDigest uint64, attempt int) float64 {
	return sim.NewRNG(seed ^ pointDigest ^ (uint64(attempt)+1)*0x9e3779b97f4a7c15).Float64()
}
