package faultinject

// hardware.go — the hardware fault domain. Where the core Injector
// perturbs the *software* fault path (buffer drops, migration stalls,
// allocation failures) and the ServiceInjector perturbs the experiment
// service around the simulator, the HardwareInjector degrades the
// *platform itself*: interconnect links lose bandwidth or flap, and a
// device can die mid-run. The UVM stack must then reroute, retry and
// re-home pages — the degraded-mode regimes a real deployment sees.
//
// Determinism contract (the same one ServiceInjector obeys): every
// decision is a stateless hash draw keyed by identity, never a shared
// sequential stream. Link health is drawn per (link, epoch) — sim time
// is cut into fixed-length epochs and each (link, epoch) pair gets an
// independent, reproducible verdict no matter when or how often it is
// queried. Per-transfer flap drops are keyed by (link, op sequence
// number), which the engine's deterministic event order makes stable
// across runs. Zero-rate configurations perform no draws at all.

import (
	"fmt"
	"math"
	"sync/atomic"

	"guvm/internal/sim"
)

// Per-decision seed salts (distinct odd constants, like the core
// injector's category salts).
const (
	saltLinkDegrade = 0xc2b2ae3d27d4eb4f
	saltLinkFlap    = 0x165667b19e3779f9
	saltLinkDrop    = 0x27d4eb2f165667c5
)

// HardwareConfig holds the hardware fault-domain knobs. The zero value
// (all rates zero, no kill scheduled) injects nothing.
type HardwareConfig struct {
	// Seed derives every decision; decisions also fold in the link ID
	// and the epoch (or op sequence) they apply to.
	Seed uint64

	// EpochLength is the virtual-time length of one link-health epoch.
	// Each link redraws its health state at every epoch boundary.
	EpochLength sim.Time

	// LinkDegradeRate is the probability in [0, 1] that a (link, epoch)
	// pair runs at degraded bandwidth.
	LinkDegradeRate float64
	// DegradedBandwidthFactor multiplies the link bandwidth during a
	// degraded epoch (0 < factor <= 1; the paper-testbed default models
	// a throttled x4 lane at 0.25).
	DegradedBandwidthFactor float64

	// LinkFlapRate is the probability in [0, 1] that a (link, epoch)
	// pair is flapping: transfers run at full bandwidth but each
	// operation may be dropped after carrying its bytes.
	LinkFlapRate float64
	// FlapDropRate is the probability in [0, 1] that one transfer
	// operation fails during a flapping epoch.
	FlapDropRate float64

	// LinkRetryLimit bounds the driver's transfer retries after a flap
	// drop; exhausting it is a fatal link failure.
	LinkRetryLimit int
	// LinkRetryBackoff is the virtual-time backoff charged before the
	// first retry; it doubles on every further attempt.
	LinkRetryBackoff sim.Time

	// KillDevice is the index of the device to kill when KillBatch
	// fires (0 in single-device systems).
	KillDevice int
	// KillBatch kills the device after it completes this many fault
	// batches (a 1-based count, so 1 kills after the first batch);
	// zero disables device death.
	KillBatch int
}

// DefaultHardwareConfig returns an inert configuration (all rates zero,
// no kill) with sensible epoch, factor and retry defaults, so callers
// only need to raise the rate of the regime they want to stress.
func DefaultHardwareConfig() HardwareConfig {
	return HardwareConfig{
		Seed:                    1,
		EpochLength:             100 * sim.Microsecond,
		DegradedBandwidthFactor: 0.25,
		FlapDropRate:            0.5,
		LinkRetryLimit:          6,
		LinkRetryBackoff:        5 * sim.Microsecond,
	}
}

// Enabled reports whether any hardware fault can occur.
func (c HardwareConfig) Enabled() bool {
	return c.LinkDegradeRate > 0 || c.LinkFlapRate > 0 || c.KillBatch > 0
}

// Validate checks the configuration for values the domain cannot run
// with.
func (c HardwareConfig) Validate() error {
	if err := checkRate("LinkDegradeRate", c.LinkDegradeRate); err != nil {
		return err
	}
	if err := checkRate("LinkFlapRate", c.LinkFlapRate); err != nil {
		return err
	}
	if err := checkRate("FlapDropRate", c.FlapDropRate); err != nil {
		return err
	}
	switch {
	case (c.LinkDegradeRate > 0 || c.LinkFlapRate > 0) && c.EpochLength <= 0:
		return fmt.Errorf("faultinject: EpochLength = %v, need > 0 with link fault rates set", c.EpochLength)
	case c.LinkDegradeRate > 0 &&
		(math.IsNaN(c.DegradedBandwidthFactor) || c.DegradedBandwidthFactor <= 0 || c.DegradedBandwidthFactor > 1):
		return fmt.Errorf("faultinject: DegradedBandwidthFactor = %v, need in (0, 1]", c.DegradedBandwidthFactor)
	case c.LinkRetryLimit < 0:
		return fmt.Errorf("faultinject: LinkRetryLimit = %d, need >= 0", c.LinkRetryLimit)
	case c.LinkRetryBackoff < 0:
		return fmt.Errorf("faultinject: LinkRetryBackoff = %v, need >= 0", c.LinkRetryBackoff)
	case c.KillDevice < 0:
		return fmt.Errorf("faultinject: KillDevice = %d, need >= 0", c.KillDevice)
	case c.KillBatch < 0:
		return fmt.Errorf("faultinject: KillBatch = %d, need >= 0 (0 disables)", c.KillBatch)
	}
	return nil
}

// HardwareStats aggregates hardware fault-domain outcomes.
type HardwareStats struct {
	// LinkTransfer counts flap-dropped transfer operations and their
	// retry outcomes (the link-transfer category).
	LinkTransfer Counters
	// DevicesKilled counts devices killed by the kill schedule.
	DevicesKilled uint64
}

// HardwareInjector makes deterministic hardware fault decisions. The
// decision methods draw stateless per-identity hashes, so they are safe
// to call in any order and any number of times; the Note* reporters and
// Stats are safe from any goroutine. All methods are nil-receiver safe.
type HardwareInjector struct {
	cfg      HardwareConfig
	transfer counterCell
	killed   atomic.Uint64
}

// NewHardware builds a hardware injector. The returned injector is
// inert (but non-nil) when no rate is set and no kill is scheduled.
func NewHardware(cfg HardwareConfig) (*HardwareInjector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &HardwareInjector{cfg: cfg}, nil
}

// Config returns the injector's configuration (zero value on nil).
func (hw *HardwareInjector) Config() HardwareConfig {
	if hw == nil {
		return HardwareConfig{}
	}
	return hw.cfg
}

// Enabled reports whether any hardware fault can occur.
func (hw *HardwareInjector) Enabled() bool { return hw != nil && hw.cfg.Enabled() }

// Stats returns a copy of the outcome counters.
func (hw *HardwareInjector) Stats() HardwareStats {
	if hw == nil {
		return HardwareStats{}
	}
	return HardwareStats{
		LinkTransfer:  hw.transfer.load(),
		DevicesKilled: hw.killed.Load(),
	}
}

// EpochOf maps a virtual time to its health epoch (0 when epochs are
// not configured).
func (hw *HardwareInjector) EpochOf(now sim.Time) int64 {
	if hw == nil || hw.cfg.EpochLength <= 0 {
		return 0
	}
	return int64(now / hw.cfg.EpochLength)
}

// hwKey folds a link ID and an epoch (or op sequence) into one decision
// key; distinct odd multipliers keep nearby identities decorrelated.
func hwKey(link int, n int64) uint64 {
	return (uint64(link)+1)*0x9e3779b97f4a7c15 ^ (uint64(n)+1)*0xbf58476d1ce4e5b9
}

// LinkEpochDraws returns the health verdicts for one (link, epoch)
// pair: whether the epoch is degraded and whether it is flapping. Both
// can be true; the link model gives flapping precedence. Zero-rate
// categories perform no draw.
func (hw *HardwareInjector) LinkEpochDraws(link int, epoch int64) (degraded, flapping bool) {
	if hw == nil {
		return false, false
	}
	key := hwKey(link, epoch)
	if hw.cfg.LinkDegradeRate > 0 {
		degraded = draw(hw.cfg.Seed^saltLinkDegrade, key, 0) < hw.cfg.LinkDegradeRate
	}
	if hw.cfg.LinkFlapRate > 0 {
		flapping = draw(hw.cfg.Seed^saltLinkFlap, key, 0) < hw.cfg.LinkFlapRate
	}
	return degraded, flapping
}

// TransferDrops decides whether one transfer operation on a flapping
// link fails, counting an injection when it does. Keyed by the link's
// per-operation sequence number, which deterministic event ordering
// makes reproducible.
func (hw *HardwareInjector) TransferDrops(link int, opSeq uint64) bool {
	if hw == nil || hw.cfg.FlapDropRate <= 0 {
		return false
	}
	if draw(hw.cfg.Seed^saltLinkDrop, hwKey(link, int64(opSeq)), 0) < hw.cfg.FlapDropRate {
		hw.transfer.injected.Add(1)
		return true
	}
	return false
}

// DegradedFactor returns the bandwidth multiplier for degraded epochs.
func (hw *HardwareInjector) DegradedFactor() float64 {
	if hw == nil || hw.cfg.DegradedBandwidthFactor <= 0 {
		return 1
	}
	return hw.cfg.DegradedBandwidthFactor
}

// RetryLimit returns the transfer retry budget after a flap drop.
func (hw *HardwareInjector) RetryLimit() int {
	if hw == nil {
		return 0
	}
	return hw.cfg.LinkRetryLimit
}

// RetryBackoffFor returns the exponential virtual-time backoff charged
// before retry i (0-based): LinkRetryBackoff << i.
func (hw *HardwareInjector) RetryBackoffFor(i int) sim.Time {
	if hw == nil {
		return 0
	}
	return hw.cfg.LinkRetryBackoff << uint(i)
}

// NoteTransferRetried counts one transfer retry after a flap drop.
// Safe from any goroutine.
func (hw *HardwareInjector) NoteTransferRetried() {
	if hw != nil {
		hw.transfer.retried.Add(1)
	}
}

// NoteTransferRecovered counts one transfer that succeeded after at
// least one flap drop. Safe from any goroutine.
func (hw *HardwareInjector) NoteTransferRecovered() {
	if hw != nil {
		hw.transfer.recovered.Add(1)
	}
}

// NoteTransferUnrecovered counts one transfer that exhausted its retry
// budget. Safe from any goroutine.
func (hw *HardwareInjector) NoteTransferUnrecovered() {
	if hw != nil {
		hw.transfer.unrecovered.Add(1)
	}
}

// NoteDeviceKilled counts one device death. Safe from any goroutine.
func (hw *HardwareInjector) NoteDeviceKilled() {
	if hw != nil {
		hw.killed.Add(1)
	}
}

// EpochHealthCounts replays the health schedule of one link up to (and
// including) the epoch containing now, returning how many epochs were
// healthy, degraded, and flapping. The draws are stateless, so this is
// a pure function of (seed, link, now) — observability gauges call it
// at sample points without perturbing any stream.
func (hw *HardwareInjector) EpochHealthCounts(link int, now sim.Time) (healthy, degraded, flapping int64) {
	if hw == nil || hw.cfg.EpochLength <= 0 {
		return 0, 0, 0
	}
	last := hw.EpochOf(now)
	for e := int64(0); e <= last; e++ {
		deg, flap := hw.LinkEpochDraws(link, e)
		switch {
		case flap:
			flapping++
		case deg:
			degraded++
		default:
			healthy++
		}
	}
	return healthy, degraded, flapping
}
