package uvm

// flags.go — the shared CLI policy flag block. Every CLI (uvmsim,
// faultviz, paperfigs, sweepd, uvmsweep) selects driver policies along
// the same registry dimensions; this file is the single definition of
// those flags, mirroring obs.RegisterFlags for the observability block.
// Single-choice tools (uvmsim, faultviz, paperfigs, and sweepd for its
// daemon-wide defaults) register PolicyFlags; the grid tool uvmsweep
// registers PolicyListFlags, whose comma lists fill a sweepd.JobSpec
// that expands them into the grid.

import (
	"flag"
	"fmt"
	"io"
	"sort"
)

// PolicyFlags binds the single-choice policy selection flags (-evict,
// -prefetch-policy, -batch-sizing, -arch) plus -list-policies. Empty
// selections defer to the config defaults, so a command line that never
// names a policy behaves exactly as before the flags existed.
type PolicyFlags struct {
	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
	List         bool
}

// RegisterPolicyFlags registers the shared policy flag block on fs and
// returns the parsed destination.
func RegisterPolicyFlags(fs *flag.FlagSet) *PolicyFlags {
	pf := &PolicyFlags{}
	fs.StringVar(&pf.Eviction, "evict", "", "eviction policy by registry name (see -list-policies)")
	fs.StringVar(&pf.Prefetch, "prefetch-policy", "", "prefetch policy by registry name (see -list-policies)")
	fs.StringVar(&pf.BatchSizing, "batch-sizing", "", "batch-sizing policy by registry name (see -list-policies)")
	fs.StringVar(&pf.Architecture, "arch", "", "UVM architecture by registry name (see -list-policies)")
	fs.BoolVar(&pf.List, "list-policies", false, "list registered driver policies and exit")
	return pf
}

// Selection converts the parsed flags into a PolicySelection.
func (pf *PolicyFlags) Selection() PolicySelection {
	return PolicySelection{
		Eviction:     pf.Eviction,
		Prefetch:     pf.Prefetch,
		BatchSizing:  pf.BatchSizing,
		Architecture: pf.Architecture,
	}
}

// HandleList writes the policy listing to w and reports whether
// -list-policies was given (the caller exits afterwards).
func (pf *PolicyFlags) HandleList(w io.Writer) bool {
	if !pf.List {
		return false
	}
	WritePolicies(w)
	return true
}

// WritePolicies writes every registered policy grouped by kind. Kinds
// keep registration order (eviction first — tooling greps for it); names
// within a kind are sorted, so the listing is deterministic however
// future registrations shuffle init order.
func WritePolicies(w io.Writer) {
	var kinds []PolicyKind
	byKind := map[PolicyKind][]PolicyInfo{}
	for _, p := range Policies() {
		if _, ok := byKind[p.Kind]; !ok {
			kinds = append(kinds, p.Kind)
		}
		byKind[p.Kind] = append(byKind[p.Kind], p)
	}
	for i, k := range kinds {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s:\n", k)
		ps := byKind[k]
		sort.Slice(ps, func(a, b int) bool { return ps[a].Name < ps[b].Name })
		for _, p := range ps {
			fmt.Fprintf(w, "  %-14s %s\n", p.Name, p.Description)
		}
	}
}

// PolicyListFlags binds the comma-separated sweep variants of the same
// dimensions (-evict, -prefetch, -batch-sizing, -arch as lists) plus
// -list-policies, for the grid tools.
type PolicyListFlags struct {
	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
	List         bool
}

// RegisterPolicyListFlags registers the sweep policy flag block on fs.
// The defaults reproduce the historical single-point sweeps (lru,
// on/off prefetch, fixed sizing, host-driven architecture).
func RegisterPolicyListFlags(fs *flag.FlagSet) *PolicyListFlags {
	pf := &PolicyListFlags{}
	fs.StringVar(&pf.Eviction, "evict", "lru", "eviction policies to sweep, by registry name (comma-separated)")
	fs.StringVar(&pf.Prefetch, "prefetch", "on,off", "prefetch policies to sweep, by registry name (on/off accepted as aliases of tree/off)")
	fs.StringVar(&pf.BatchSizing, "batch-sizing", "fixed", "batch-sizing policies to sweep, by registry name (comma-separated)")
	fs.StringVar(&pf.Architecture, "arch", "host-driven", "UVM architectures to sweep, by registry name (comma-separated)")
	fs.BoolVar(&pf.List, "list-policies", false, "list registered driver policies and exit")
	return pf
}

// HandleList writes the policy listing to w and reports whether
// -list-policies was given (the caller exits afterwards).
func (pf *PolicyListFlags) HandleList(w io.Writer) bool {
	if !pf.List {
		return false
	}
	WritePolicies(w)
	return true
}
