package sweepd

import (
	"fmt"
	"strings"

	"guvm"
	"guvm/internal/digest"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// JobSpec is the wire-format sweep request: one workload crossed with
// lists of driver knobs. Empty lists fall back to single-point defaults,
// so the minimal useful job is just {"workload":"stream"}.
type JobSpec struct {
	Workload string `json:"workload"`
	MB       uint64 `json:"mb,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	Batches  []int    `json:"batches,omitempty"`
	CapsMB   []int    `json:"caps_mb,omitempty"`
	Evict    []string `json:"evict,omitempty"`
	Prefetch []string `json:"prefetch,omitempty"`
	Sizing   []string `json:"batch_sizing,omitempty"`
	Arch     []string `json:"arch,omitempty"`

	// DeadlineMS bounds the whole job in wall-clock milliseconds;
	// 0 uses the service default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// defaultPolicies supplies the per-dimension values a JobSpec omits;
// empty fields fall back to the historical defaults (lru, tree, fixed,
// host-driven). Set once at daemon startup, before jobs are admitted.
var defaultPolicies uvm.PolicySelection

// SetDefaultPolicies installs daemon-wide default policies applied to
// every JobSpec dimension the client leaves empty, mirroring
// experiments.SetPolicies. Names are validated against the registry so
// the daemon rejects a bad default — with the valid options — at
// startup, never at job admission.
func SetDefaultPolicies(p uvm.PolicySelection) error {
	var probe uvm.Config
	if err := p.Apply(&probe); err != nil {
		return err
	}
	defaultPolicies = p
	return nil
}

// orDefault picks the first non-empty value.
func orDefault(vals ...string) string {
	for _, v := range vals {
		if v != "" {
			return v
		}
	}
	return ""
}

func (js *JobSpec) normalize() {
	if js.MB == 0 {
		js.MB = 64
	}
	if js.N == 0 {
		js.N = 3072
	}
	if js.Seed == 0 {
		js.Seed = 11
	}
	if len(js.Batches) == 0 {
		js.Batches = []int{256}
	}
	if len(js.CapsMB) == 0 {
		js.CapsMB = []int{64}
	}
	if len(js.Evict) == 0 {
		js.Evict = []string{orDefault(defaultPolicies.Eviction, "lru")}
	}
	if len(js.Prefetch) == 0 {
		js.Prefetch = []string{orDefault(defaultPolicies.Prefetch, "tree")}
	}
	if len(js.Sizing) == 0 {
		js.Sizing = []string{orDefault(defaultPolicies.BatchSizing, "fixed")}
	}
	if len(js.Arch) == 0 {
		js.Arch = []string{orDefault(defaultPolicies.Architecture, "host-driven")}
	}
}

// Points validates the spec and expands its grid in deterministic order
// (batches x caps x prefetch x evict x sizing x arch, the architecture
// innermost). This is the one grid expander: uvmsweep fills a JobSpec
// from its flags and runs these same points. Every
// policy name is checked against the registry and the workload against
// the catalog before any simulation runs, so a bad spec is rejected at
// admission with a client error, never mid-sweep.
func (js JobSpec) Points() ([]PointConfig, error) {
	js.normalize()
	if _, err := workloads.ByName(js.Workload, js.MB, js.N, js.Seed); err != nil {
		return nil, err
	}
	for _, bs := range js.Batches {
		if bs <= 0 {
			return nil, fmt.Errorf("sweepd: batch size %d out of range", bs)
		}
	}
	for _, c := range js.CapsMB {
		if c <= 0 {
			return nil, fmt.Errorf("sweepd: capacity %d MiB out of range", c)
		}
	}
	var pts []PointConfig
	for _, bs := range js.Batches {
		for _, capMB := range js.CapsMB {
			for _, pf := range js.Prefetch {
				// Legacy aliases (on/off).
				pfName := normalizePrefetch(pf)
				for _, ev := range js.Evict {
					for _, sz := range js.Sizing {
						for _, ar := range js.Arch {
							sel := uvm.PolicySelection{
								Eviction:     strings.TrimSpace(ev),
								Prefetch:     pfName,
								BatchSizing:  strings.TrimSpace(sz),
								Architecture: strings.TrimSpace(ar),
							}
							var probe uvm.Config
							if err := sel.Apply(&probe); err != nil {
								return nil, err
							}
							pts = append(pts, PointConfig{
								Workload:  js.Workload,
								MB:        js.MB,
								N:         js.N,
								Seed:      js.Seed,
								BatchSize: bs,
								CapMB:     capMB,
								Evict:     sel.Eviction,
								Prefetch:  sel.Prefetch,
								Sizing:    sel.BatchSizing,
								Arch:      sel.Architecture,
							})
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// normalizePrefetch maps the legacy prefetch aliases a sweep accepts onto
// registry names: "on" means "tree", "" means "off".
func normalizePrefetch(name string) string {
	switch name = strings.TrimSpace(name); name {
	case "on":
		return "tree"
	case "":
		return "off"
	}
	return name
}

// PointConfig is one fully-resolved grid point — the unit of caching.
// Two specs that expand to the same point share one digest and therefore
// one cached result.
type PointConfig struct {
	Workload  string `json:"workload"`
	MB        uint64 `json:"mb"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	BatchSize int    `json:"batch_size"`
	CapMB     int    `json:"cap_mb"`
	Evict     string `json:"evict"`
	Prefetch  string `json:"prefetch"`
	Sizing    string `json:"batch_sizing"`
	Arch      string `json:"arch"`
}

// digestVersion is folded into every config digest. Bump it whenever the
// simulation or the artifact schema changes meaning, so stale cached
// results from an older binary are never served as current.
// v2: PointConfig gained the architecture dimension.
const digestVersion = 2

// Digest is the content address of this point: FNV-1a over the version
// tag and every field, in declaration order.
func (p PointConfig) Digest() uint64 {
	return digest.New().
		Int(digestVersion).
		String(p.Workload).
		Uint64(p.MB).
		Int(p.N).
		Uint64(p.Seed).
		Int(p.BatchSize).
		Int(p.CapMB).
		String(p.Evict).
		String(p.Prefetch).
		String(p.Sizing).
		String(p.Arch).
		Sum()
}

// PointRow is the per-point result streamed to clients and persisted as
// the cached artifact. Digests are hex strings because JSON numbers lose
// precision above 2^53.
type PointRow struct {
	ConfigDigest string      `json:"config_digest"`
	StateDigest  string      `json:"state_digest,omitempty"`
	Point        PointConfig `json:"point"`

	KernelMS        float64 `json:"kernel_ms"`
	BatchMS         float64 `json:"batch_ms"`
	Batches         int     `json:"batches"`
	Faults          int     `json:"faults"`
	Evictions       int     `json:"evictions"`
	MigratedMB      float64 `json:"migrated_mb"`
	PrefetchedPages int     `json:"prefetched_pages"`

	// Cached marks a row served from the result store rather than a fresh
	// simulation. Stripped before persisting, so artifacts are identical
	// however they were produced.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts simulation attempts (1 = first try succeeded).
	Attempts int `json:"attempts,omitempty"`
	// Error is set instead of a result when every attempt failed.
	Error string `json:"error,omitempty"`
}

// CSVHeader names the columns of PointRow.CSV.
const CSVHeader = "workload,batch_size,cap_mb,prefetch,evict,batch_sizing,arch,kernel_ms,batch_ms,batches,faults,evictions,migrated_mb,prefetched_pages"

// CSV renders the row's point and outcome as one CSV line (no newline)
// under CSVHeader.
func (r PointRow) CSV() string {
	p := r.Point
	return fmt.Sprintf("%s,%d,%d,%s,%s,%s,%s,%.3f,%.3f,%d,%d,%d,%.1f,%d",
		p.Workload, p.BatchSize, p.CapMB, p.Prefetch, p.Evict, p.Sizing, p.Arch,
		r.KernelMS, r.BatchMS, r.Batches, r.Faults, r.Evictions, r.MigratedMB, r.PrefetchedPages)
}

// SimulatePoint runs one grid point to completion and returns its result
// row plus the simulator's final state digest. The invariant auditor is
// always on so the digest exists; it is the bit-identity witness cached
// results are compared against.
func SimulatePoint(pc PointConfig) (PointRow, uint64, error) {
	mk, err := workloads.ByName(pc.Workload, pc.MB, pc.N, pc.Seed)
	if err != nil {
		return PointRow{}, 0, err
	}
	cfg := guvm.DefaultConfig()
	cfg.Driver.BatchSize = pc.BatchSize
	cfg.Driver.GPUMemBytes = uint64(pc.CapMB) << 20
	cfg.Policies = uvm.PolicySelection{
		Eviction:     pc.Evict,
		Prefetch:     pc.Prefetch,
		BatchSizing:  pc.Sizing,
		Architecture: pc.Arch,
	}
	cfg.Audit.Enabled = true
	cfg.Audit.Interval = 8
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		return PointRow{}, 0, err
	}
	res, err := s.Run(mk())
	if err != nil {
		return PointRow{}, 0, fmt.Errorf("sweepd: %s bs=%d cap=%d: %w", pc.Workload, pc.BatchSize, pc.CapMB, err)
	}
	state := res.Audit.FinalDigest
	row := PointRow{
		ConfigDigest:    fmt.Sprintf("%016x", pc.Digest()),
		StateDigest:     fmt.Sprintf("%016x", state),
		Point:           pc,
		KernelMS:        res.KernelTime.Millis(),
		BatchMS:         res.BatchTime().Millis(),
		Batches:         len(res.Batches),
		Faults:          res.DriverStats.TotalFaults,
		Evictions:       res.DriverStats.Evictions,
		MigratedMB:      float64(res.BytesMigrated()) / (1 << 20),
		PrefetchedPages: res.DriverStats.PrefetchedPages,
	}
	return row, state, nil
}
