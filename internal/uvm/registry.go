package uvm

// registry.go — the named driver-policy registry.
//
// The paper's driver analysis ends on policy questions ("this LRU policy
// may not be optimal", §5.4; batch sizing and prefetch scope, §6). The
// registry makes each of those decision points a named, pluggable policy
// attached at a stage seam of the batch pipeline (pipeline.go):
//
//	eviction     — victim selection in the residency stage (residency.go)
//	prefetch     — migration planning in the prefetch-plan stage
//	               (prefetchplan.go), including cross-block scope
//	batch-sizing — effective-batch adjustment in the replay stage
//	               (replay.go)
//	architecture — the stage graph itself: fault-observation point, stage
//	               list, and mapping-state owner (arch.go)
//
// Policies are resolved by string name from guvm.SystemConfig, the CLI
// flags, and the experiment ablations; an unregistered name is rejected
// with an UnknownPolicyError that names the valid options.

import (
	"errors"
	"fmt"
	"strings"

	"guvm/internal/mem"
	"guvm/internal/trace"
)

// PolicyKind names one of the driver's pluggable decision points.
type PolicyKind string

const (
	KindEviction     PolicyKind = "eviction"
	KindPrefetch     PolicyKind = "prefetch"
	KindBatchSizing  PolicyKind = "batch-sizing"
	KindArchitecture PolicyKind = "architecture"
)

// PolicyInfo describes one registered policy for listings.
type PolicyInfo struct {
	Kind        PolicyKind
	Name        string
	Description string
}

// ErrUnknownPolicy is the sentinel wrapped by every UnknownPolicyError.
var ErrUnknownPolicy = errors.New("unknown policy")

// UnknownPolicyError reports a policy name absent from the registry. It
// carries (and prints) the valid options so callers can surface them.
type UnknownPolicyError struct {
	Kind  PolicyKind
	Name  string
	Valid []string
}

func (e *UnknownPolicyError) Error() string {
	return fmt.Sprintf("uvm: unknown %s policy %q (valid: %s)",
		e.Kind, e.Name, strings.Join(e.Valid, ", "))
}

func (e *UnknownPolicyError) Unwrap() error { return ErrUnknownPolicy }

// EvictionStrategy picks the victim VABlock under memory pressure. Pick
// receives the candidate indices into the driver's allocation-ordered
// block list (never empty) and returns the chosen one. Implementations
// must be deterministic given the driver state (EvictRandom draws from
// the driver's seeded RNG). candidates is driver scratch, valid only for
// the call.
type EvictionStrategy interface {
	Pick(d *Driver, candidates []int) int
}

// PrefetchPlanner decides which pages beyond the deduplicated faulted set
// migrate. PlanBlock returns the extra in-block pages (excluding resident
// and faulted ones); CrossBlockScope returns how many whole VABlocks
// following a fully-resident faulting block to migrate eagerly in the
// same batch (0 disables the §6 cross-block extension).
type PrefetchPlanner interface {
	PlanBlock(d *Driver, resident, faulted *mem.PageSet) mem.PageSet
	CrossBlockScope(d *Driver) int
}

// BatchSizer adjusts the driver's effective batch size after each
// completed batch (the §6 "tune batch size based on the number of
// duplicate faults received" seam).
type BatchSizer interface {
	Update(d *Driver, rec *trace.BatchRecord)
}

// policyEntry is one registered policy; payload holds the kind-specific
// implementation (EvictionStrategy, prefetch applier, or sizingPayload).
type policyEntry struct {
	info    PolicyInfo
	payload any
}

// policyTable is one kind's registry. Entries keep registration order so
// listings (and the ablation sweeps built on them) are deterministic.
type policyTable struct {
	kind    PolicyKind
	entries []policyEntry
}

func (t *policyTable) register(name, desc string, payload any) {
	if _, ok := t.lookup(name); ok {
		panic(fmt.Sprintf("uvm: duplicate %s policy %q", t.kind, name))
	}
	t.entries = append(t.entries, policyEntry{
		info:    PolicyInfo{Kind: t.kind, Name: name, Description: desc},
		payload: payload,
	})
}

func (t *policyTable) lookup(name string) (policyEntry, bool) {
	for _, e := range t.entries {
		if e.info.Name == name {
			return e, true
		}
	}
	return policyEntry{}, false
}

func (t *policyTable) names() []string {
	out := make([]string, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.info.Name
	}
	return out
}

func (t *policyTable) unknown(name string) *UnknownPolicyError {
	return &UnknownPolicyError{Kind: t.kind, Name: name, Valid: t.names()}
}

// sizingPayload pairs a batch-sizing policy's config normalization with
// its runtime sizer.
type sizingPayload struct {
	apply func(*Config)
	sizer BatchSizer
}

var (
	evictionRegistry = &policyTable{kind: KindEviction}
	prefetchRegistry = &policyTable{kind: KindPrefetch}
	sizingRegistry   = &policyTable{kind: KindBatchSizing}
)

func init() {
	evictionRegistry.register(string(EvictLRU),
		"evict the least-recently-migrated block (shipped driver; degrades to earliest-allocated, §5.4)",
		lruStrategy{})
	evictionRegistry.register(string(EvictFIFO),
		"evict in chunk allocation order",
		fifoStrategy{})
	evictionRegistry.register(string(EvictRandom),
		"evict a seeded-random resident block",
		randomStrategy{})
	evictionRegistry.register(string(EvictLFU),
		"evict the block with the fewest GPU access-counter hits (the page-hit signal §5.4 says LRU lacks)",
		lfuStrategy{})

	prefetchRegistry.register("tree",
		"density (tree-based) prefetching within the faulting VABlock (shipped driver, §5.2)",
		func(c *Config) {
			c.PrefetchEnabled = true
			c.CrossBlockPrefetch = 0
		})
	prefetchRegistry.register("off",
		"no prefetching: migrate only deduplicated faulted pages",
		func(c *Config) {
			c.PrefetchEnabled = false
			c.Upgrade64K = false
			c.CrossBlockPrefetch = 0
		})
	prefetchRegistry.register("cross-block",
		"tree prefetching plus eager whole-block migration beyond the faulting VABlock (§6 proposal)",
		func(c *Config) {
			c.PrefetchEnabled = true
			if c.CrossBlockPrefetch < 1 {
				c.CrossBlockPrefetch = 2
			}
		})

	sizingRegistry.register("fixed",
		"fixed effective batch size (shipped driver: BatchSize faults per batch)",
		sizingPayload{
			apply: func(c *Config) {
				c.AdaptiveBatch = false
				c.BatchSizing = ""
			},
			sizer: fixedSizer{},
		})
	sizingRegistry.register("adaptive",
		"duplicate-adaptive batch sizing within [AdaptiveMin, BatchSize] (§6 proposal)",
		sizingPayload{
			apply: func(c *Config) {
				c.AdaptiveBatch = true
				c.BatchSizing = ""
				if c.AdaptiveMin < 1 {
					c.AdaptiveMin = 64
				}
				if c.AdaptiveMin > c.BatchSize {
					c.AdaptiveMin = c.BatchSize
				}
			},
			sizer: adaptiveSizer{},
		})

	sizingRegistry.register("degraded-aware",
		"adaptive sizing that halves the batch while the interconnect is degraded, flapping or dead",
		sizingPayload{
			apply: func(c *Config) {
				c.AdaptiveBatch = true
				c.BatchSizing = "degraded-aware"
				if c.AdaptiveMin < 1 {
					c.AdaptiveMin = 64
				}
				if c.AdaptiveMin > c.BatchSize {
					c.AdaptiveMin = c.BatchSize
				}
			},
			sizer: degradedSizer{},
		})
}

// RegisterEvictionPolicy adds a victim-selection strategy to the registry
// under a new name, making it selectable everywhere eviction policies are
// resolved by string (SystemConfig, CLI flags, sweeps). It errors on an
// empty name or a duplicate.
func RegisterEvictionPolicy(name, description string, s EvictionStrategy) error {
	if name == "" || s == nil {
		return fmt.Errorf("uvm: eviction policy needs a name and a strategy")
	}
	if _, ok := evictionRegistry.lookup(name); ok {
		return fmt.Errorf("uvm: eviction policy %q already registered", name)
	}
	evictionRegistry.register(name, description, s)
	return nil
}

// Policies lists every registered policy of every kind, in registration
// order (eviction, then prefetch, then batch sizing, then architecture).
func Policies() []PolicyInfo {
	var out []PolicyInfo
	for _, t := range []*policyTable{evictionRegistry, prefetchRegistry, sizingRegistry, architectureRegistry} {
		for _, e := range t.entries {
			out = append(out, e.info)
		}
	}
	return out
}

// PoliciesOf lists the registered policies of one kind.
func PoliciesOf(kind PolicyKind) []PolicyInfo {
	var out []PolicyInfo
	for _, p := range Policies() {
		if p.Kind == kind {
			out = append(out, p)
		}
	}
	return out
}

// ResolveEviction maps a policy name to its typed config value. The empty
// string resolves to the shipped default (LRU); an unregistered name
// returns an UnknownPolicyError listing the valid options.
func ResolveEviction(name string) (EvictionPolicy, error) {
	if name == "" {
		return EvictLRU, nil
	}
	if _, ok := evictionRegistry.lookup(name); !ok {
		return "", evictionRegistry.unknown(name)
	}
	return EvictionPolicy(name), nil
}

// PolicySelection selects driver policies by registry name. Empty fields
// leave the corresponding Config knobs untouched, so the zero value is a
// no-op and legacy knob-based configuration keeps working unchanged.
type PolicySelection struct {
	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
}

// Apply resolves each named policy and rewrites c's typed knobs to the
// canonical settings of that policy. Parameters that are not policy
// identity (PrefetchThreshold, Upgrade64K under "tree"/"cross-block",
// AdaptiveMin, EvictionSeed) are preserved.
func (s PolicySelection) Apply(c *Config) error {
	if s.Eviction != "" {
		pol, err := ResolveEviction(s.Eviction)
		if err != nil {
			return err
		}
		c.Eviction = pol
	}
	if s.Prefetch != "" {
		e, ok := prefetchRegistry.lookup(s.Prefetch)
		if !ok {
			return prefetchRegistry.unknown(s.Prefetch)
		}
		e.payload.(func(*Config))(c)
	}
	if s.BatchSizing != "" {
		e, ok := sizingRegistry.lookup(s.BatchSizing)
		if !ok {
			return sizingRegistry.unknown(s.BatchSizing)
		}
		e.payload.(sizingPayload).apply(c)
	}
	if s.Architecture != "" {
		if _, ok := architectureRegistry.lookup(s.Architecture); !ok {
			return architectureRegistry.unknown(s.Architecture)
		}
		// Architecture-specific config rewrites (cost model, thresholds)
		// happen in NewDriver, so direct Config.Architecture assignment and
		// registry selection behave identically.
		c.Architecture = s.Architecture
	}
	return nil
}

// resolveEvictionStrategy returns the runtime strategy for a validated
// config ("" defaults to LRU).
func resolveEvictionStrategy(p EvictionPolicy) EvictionStrategy {
	name := string(p)
	if name == "" {
		name = string(EvictLRU)
	}
	e, ok := evictionRegistry.lookup(name)
	if !ok {
		// Validate rejects unregistered names before a Driver is built.
		panic(evictionRegistry.unknown(name))
	}
	return e.payload.(EvictionStrategy)
}

// resolvePrefetchPlanner returns the runtime planner for the configured
// knobs. The planner identity follows PrefetchEnabled; the cross-block
// scope is read from the config by both planners, so legacy knob
// combinations keep their exact historical behaviour.
func resolvePrefetchPlanner(c Config) PrefetchPlanner {
	if c.PrefetchEnabled {
		return treePlanner{}
	}
	return offPlanner{}
}

// resolveBatchSizer returns the runtime sizer for the configured knobs.
func resolveBatchSizer(c Config) BatchSizer {
	name := c.BatchSizingName()
	e, ok := sizingRegistry.lookup(name)
	if !ok {
		panic(sizingRegistry.unknown(name))
	}
	return e.payload.(sizingPayload).sizer
}
