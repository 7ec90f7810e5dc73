package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"guvm"
	"guvm/internal/experiments"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/sweepd"
	"guvm/internal/sweepd/store"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// workloadNames lists the benchmark's workloads in the order the
// self-check runs them.
var workloadNames = []string{"paperfigs", "sweep-oversub", "explicit-gemm"}

// workload is one closed loop: a single client that issues the next call
// only after the previous one has returned.
type workload interface {
	// pass runs the workload once. Spans go to tl under parent; tl is nil
	// on untraced passes.
	pass(tl *spanLog, parent int) passResult
	// countLayers reruns the last pass's simulations to read every
	// component's Stats(), where the pass itself cannot reach them, and
	// adds the counts to r.layer. It runs after the traced pass, outside
	// its timing and its profile.
	countLayers(r *passResult)
}

// passResult is what one pass did and observed.
type passResult struct {
	ops    int // operations attempted: experiments, sweep points or runs
	failed int // operations that failed, plus correctness problems found
	// problems describes each failure.
	problems []string
	// obs holds the simulated outputs the correctness gate compares,
	// keyed by experiment, sweep point or run.
	obs map[string]string
	// layer holds per-layer counts and host times.
	layer map[string]float64
}

func newPassResult() passResult {
	return passResult{obs: map[string]string{}, layer: map[string]float64{}}
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// newWorkload builds a workload's inputs from the seed. scratch is a
// directory the workload may create temporary files under.
func newWorkload(name string, seed uint64, scratch string) (workload, error) {
	switch name {
	case "paperfigs":
		return &paperfigs{gens: experiments.All()}, nil
	case "sweep-oversub":
		return newSweepOversub(seed, scratch)
	case "explicit-gemm":
		return newExplicitGEMM(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames, ", "))
}

// seedScoped reports whether a workload's simulated outputs depend on the
// seed, so that its expected values are recorded per seed.
func seedScoped(name string) bool { return name == "sweep-oversub" }

// ---- paperfigs ----

// paperfigs regenerates every experiment in registry order, one at a
// time, and renders each artifact to its table and series bytes in
// memory. Its experiments carry fixed seeds of their own, so it ignores
// the benchmark seed.
type paperfigs struct {
	gens []experiments.Generator
}

func (p *paperfigs) pass(tl *spanLog, parent int) passResult {
	// No pass serves another pass's memoized runs, and none keeps them
	// alive into the next pass's heap.
	experiments.ResetCache()
	defer experiments.ResetCache()
	r := newPassResult()
	var render time.Duration
	for _, g := range p.gens {
		sp := tl.begin(parent, "experiment "+g.ID)
		run := tl.begin(sp, "Generator.Run")
		t := time.Now()
		a, err := g.Run()
		r.layer["experiments."+g.ID+"_s"] = time.Since(t).Seconds()
		tl.end(run)
		r.ops++
		if err != nil {
			r.fail("%s: %v", g.ID, err)
			tl.end(sp)
			continue
		}
		rs := tl.begin(sp, "render")
		t = time.Now()
		r.obs[g.ID] = renderDigest(a)
		render += time.Since(t)
		tl.end(rs)
		tl.end(sp)
	}
	r.layer["experiments.render_ms"] = float64(render.Nanoseconds()) / 1e6
	return r
}

// countLayers adds nothing: the experiments build their simulators
// internally, so their component counts are not reachable from outside.
func (p *paperfigs) countLayers(*passResult) {}

// renderDigest renders an artifact the way paperfigs writes it (aligned
// tables, CSV tables and series, notes) and returns the SHA-256 of the
// bytes.
func renderDigest(a *experiments.Artifact) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n", a.ID, a.Title)
	for _, tb := range a.Tables {
		h.Write([]byte(tb.String()))
		h.Write([]byte(tb.CSV()))
	}
	for _, s := range a.Series {
		fmt.Fprintf(h, "%s\n", s.Title)
		h.Write([]byte(s.CSV()))
	}
	for _, n := range a.Notes {
		fmt.Fprintf(h, "- %s\n", n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- sweep-oversub ----

// sweepOversub submits one oversubscribed grid to a sweepd service with
// one worker over a fresh result store, waits for every point, then
// submits the same grid again, which the store answers from cache.
type sweepOversub struct {
	spec    sweepd.JobSpec
	points  int
	scratch string
	last    []sweepd.PointRow // fresh rows of the last pass
}

func newSweepOversub(seed uint64, scratch string) (*sweepOversub, error) {
	spec := sweepd.JobSpec{
		Workload: "random",
		MB:       48,
		Seed:     seed,
		Batches:  []int{256, 1024},
		CapsMB:   []int{24, 32, 40}, // every point oversubscribes the 48 MiB footprint
		Evict:    []string{"lru", "fifo", "random", "lfu"},
		Arch:     []string{"host-driven", "gpu-driven", "access-counter"},
	}
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	return &sweepOversub{spec: spec, points: len(pts), scratch: scratch}, nil
}

func (w *sweepOversub) pass(tl *spanLog, parent int) passResult {
	r := newPassResult()
	r.ops = 2 * w.points
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		r.fail("store dir: %v", err)
		return r
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir)
	if err != nil {
		r.fail("store: %v", err)
		return r
	}
	defer st.Close()

	svc := sweepd.New(st, nil, nil, sweepd.Config{Workers: 1})
	var tr *obs.Tracer
	if tl != nil {
		tr = obs.NewTracer()
		svc.SetTracer(tr, tl.t0)
	}
	mux := http.NewServeMux()
	svc.Mount(mux)
	svc.Start()
	freshID, fresh := w.job(svc, mux, tl, parent, "job fresh", &r)
	cachedID, cached := w.job(svc, mux, tl, parent, "job cached", &r)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := svc.Drain(ctx); err != nil {
		r.fail("drain: %v", err)
	}
	cancel()

	if len(fresh) != w.points || len(cached) != w.points {
		r.fail("rows: fresh %d, cached %d, want %d each", len(fresh), len(cached), w.points)
		return r
	}
	retries, hits := 0, 0
	for i, row := range fresh {
		switch {
		case row.Error != "":
			r.fail("point %s: %s", row.ConfigDigest, row.Error)
			continue
		case row.Cached:
			r.fail("point %s: served from cache on a fresh store", row.ConfigDigest)
		}
		retries += row.Attempts - 1
		r.obs[row.ConfigDigest] = row.StateDigest
		c := cached[i]
		if c.Cached {
			hits++
		} else {
			r.fail("point %s: resubmission re-simulated", c.ConfigDigest)
		}
		// A cached row is the stored artifact: the same row with the
		// runtime fields (Cached, Attempts) cleared.
		c.Cached, c.Attempts = false, 0
		row.Attempts = 0
		if c != row {
			r.fail("point %s: cached row differs from fresh row", row.ConfigDigest)
		}
	}
	w.last = fresh
	r.layer["sweepd.cache_hits"] = float64(hits)
	r.layer["sweepd.retries"] = float64(retries)
	if tr != nil {
		var freshMS, cachedMS []float64
		for _, s := range tr.Spans() {
			if s.Cat != "point" {
				continue
			}
			ms := float64(s.Dur) / 1e6
			switch {
			case strings.HasPrefix(s.Name, freshID+" #"):
				freshMS = append(freshMS, ms)
			case strings.HasPrefix(s.Name, cachedID+" #"):
				cachedMS = append(cachedMS, ms)
			}
		}
		r.layer["sweepd.point_p50_ms"] = median(freshMS)
		pct, tail, ok := tailPercentile(freshMS)
		if ok {
			r.layer["sweepd.point_tail_ms"] = tail
		}
		r.layer["sweepd.point_tail_pct"] = pct
		r.layer["sweepd.point_samples"] = float64(len(freshMS))
		r.layer["sweepd.cache_hit_ms"] = median(cachedMS)
	}
	return r
}

// job submits the grid, reads the job's NDJSON result stream until the
// job is terminal (the service's own HTTP handler, called in-process),
// and returns the job id and its rows in grid order.
func (w *sweepOversub) job(svc *sweepd.Service, mux *http.ServeMux, tl *spanLog, parent int, name string, r *passResult) (string, []sweepd.PointRow) {
	sp := tl.begin(parent, name)
	defer tl.end(sp)
	sub := tl.begin(sp, "Submit")
	v, err := svc.Submit(w.spec)
	tl.end(sub)
	if err != nil {
		r.fail("submit: %v", err)
		return "", nil
	}
	res := tl.begin(sp, "results")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sweep/jobs/"+v.ID+"/results", nil))
	tl.end(res)
	var rows []sweepd.PointRow
	for dec := json.NewDecoder(rec.Body); dec.More(); {
		var row sweepd.PointRow
		if err := dec.Decode(&row); err != nil {
			r.fail("%s result row: %v", v.ID, err)
			break
		}
		rows = append(rows, row)
	}
	if fin, err := svc.Job(v.ID); err != nil || fin.State != sweepd.JobDone {
		r.fail("%s: state %q, error %v %s", v.ID, fin.State, err, fin.Error)
	}
	return v.ID, rows
}

// countLayers replays every point of the last pass on a simulator the
// benchmark builds itself, configured as sweepd.SimulatePoint configures
// it, and sums the components' counters. Each replay's final state digest
// must equal the point's row, which proves the replay ran the same
// simulation.
func (w *sweepOversub) countLayers(r *passResult) {
	var c layerCounts
	var wall time.Duration
	for _, row := range w.last {
		pc := row.Point
		mk, err := workloads.ByName(pc.Workload, pc.MB, pc.N, pc.Seed)
		if err != nil {
			r.fail("replay %s: %v", row.ConfigDigest, err)
			continue
		}
		cfg := guvm.DefaultConfig()
		cfg.Driver.BatchSize = pc.BatchSize
		cfg.Driver.GPUMemBytes = uint64(pc.CapMB) << 20
		cfg.Policies = uvm.PolicySelection{Eviction: pc.Evict, Prefetch: pc.Prefetch, BatchSizing: pc.Sizing, Architecture: pc.Arch}
		cfg.Audit.Enabled = true
		cfg.Audit.Interval = 8
		s, err := guvm.NewSimulator(cfg)
		if err != nil {
			r.fail("replay %s: %v", row.ConfigDigest, err)
			continue
		}
		t := time.Now()
		res, err := s.Run(mk())
		wall += time.Since(t)
		if err != nil {
			r.fail("replay %s: %v", row.ConfigDigest, err)
			continue
		}
		if got := fmt.Sprintf("%016x", res.Audit.FinalDigest); got != row.StateDigest {
			r.fail("replay %s: state digest %s, row has %s", row.ConfigDigest, got, row.StateDigest)
		}
		c.add(s, res)
	}
	c.into(r.layer, wall)
}

// ---- explicit-gemm ----

// gemmSizes are the matrix dimensions one explicit-gemm pass runs, each
// once. They must be multiples of the GEMM tile (256).
var gemmSizes = []int{3840, 4096, 4352}

// gemmRun is one sgemm or dgemm run.
type gemmRun struct {
	kind string // "sgemm" or "dgemm"
	n    int
}

func (g gemmRun) String() string { return g.kind + "-" + strconv.Itoa(g.n) }

// explicitGEMM runs sgemm/dgemm near N=4096 under explicit management
// (bulk copy, no faults) with GPU memory above the footprint and the
// auditor off. The seed picks, for each size, sgemm or dgemm and the
// order of the runs. sgemm and dgemm of one size execute the same number
// of engine events, so every seed does the same amount of work.
type explicitGEMM struct {
	runs []gemmRun
}

func newExplicitGEMM(seed uint64) *explicitGEMM {
	rng := sim.NewRNG(seed)
	w := &explicitGEMM{}
	for _, i := range rng.Perm(len(gemmSizes)) {
		kind := "sgemm"
		if rng.Intn(2) == 1 {
			kind = "dgemm"
		}
		w.runs = append(w.runs, gemmRun{kind, gemmSizes[i]})
	}
	return w
}

func (w *explicitGEMM) pass(tl *spanLog, parent int) passResult {
	r := newPassResult()
	var c layerCounts
	var wall time.Duration
	for _, run := range w.runs {
		r.ops++
		sp := tl.begin(parent, "run "+run.String())
		cfg := guvm.DefaultConfig()
		cfg.Driver.GPUMemBytes = 1 << 30 // above the largest footprint (3 x 4352^2 x 8 B)
		ns := tl.begin(sp, "NewSimulator")
		s, err := guvm.NewSimulator(cfg)
		tl.end(ns)
		if err != nil {
			r.fail("%s: %v", run, err)
			tl.end(sp)
			continue
		}
		var wl workloads.Workload = workloads.NewSGEMM(run.n)
		if run.kind == "dgemm" {
			wl = workloads.NewDGEMM(run.n)
		}
		re := tl.begin(sp, "RunExplicit")
		t := time.Now()
		res, err := s.RunExplicit(wl)
		wall += time.Since(t)
		tl.end(re)
		tl.end(sp)
		if err != nil {
			r.fail("%s: %v", run, err)
			continue
		}
		key := run.String()
		r.obs[key+".kernel_ns"] = strconv.FormatInt(int64(res.KernelTime), 10)
		r.obs[key+".total_ns"] = strconv.FormatInt(int64(res.TotalTime), 10)
		r.obs[key+".events"] = strconv.FormatUint(s.Engine.Executed(), 10)
		c.add(s, res)
	}
	c.into(r.layer, wall)
	return r
}

// countLayers adds nothing: the pass reads every component itself.
func (w *explicitGEMM) countLayers(*passResult) {}

// ---- component counters ----

// layerCounts sums the public Stats() of the components of several runs.
type layerCounts struct {
	events                          uint64
	gpuEmitted, gpuDups, refaults   int
	batches, faults, rawFaults      int
	uniquePages                     int
	evictions, migrated, prefetched int
	unmapCalls, populated           int
	radixNodes                      int
	linkOps                         int
	toGPU, toHost                   uint64
	snapshots                       int
}

func (c *layerCounts) add(s *guvm.Simulator, res *guvm.Result) {
	c.events += s.Engine.Executed()
	d := res.DeviceStats
	c.gpuEmitted += d.FaultsEmitted
	c.gpuDups += d.DupFaults
	c.refaults += d.Refaults
	u := res.DriverStats
	c.batches += u.Batches
	c.faults += u.TotalFaults
	c.evictions += u.Evictions
	c.migrated += u.MigratedPages
	c.prefetched += u.PrefetchedPages
	for i := range res.Batches {
		c.rawFaults += res.Batches[i].RawFaults
		c.uniquePages += res.Batches[i].UniquePages
	}
	h := res.HostStats
	c.unmapCalls += h.UnmapCalls
	c.populated += h.PagesPopulated
	c.radixNodes += h.RadixNodes
	l := res.LinkStats
	c.linkOps += l.Ops
	c.toGPU += l.BytesToGPU
	c.toHost += l.BytesToHost
	if res.Audit != nil {
		c.snapshots += len(res.Audit.Snapshots)
	}
}

// into writes the sums as per-layer metrics; wall is the host time spent
// inside the runs that executed the events.
func (c *layerCounts) into(m map[string]float64, wall time.Duration) {
	m["sim.events"] = float64(c.events)
	if c.events > 0 {
		m["sim.ns_per_event"] = float64(wall.Nanoseconds()) / float64(c.events)
	}
	m["gpu.faults_emitted"] = float64(c.gpuEmitted)
	m["gpu.dup_faults"] = float64(c.gpuDups)
	m["gpu.refaults"] = float64(c.refaults)
	m["uvm.batches"] = float64(c.batches)
	m["uvm.faults"] = float64(c.faults)
	m["uvm.fetched_faults"] = float64(c.rawFaults)
	if c.rawFaults > 0 {
		m["uvm.unique_fault_ratio"] = float64(c.uniquePages) / float64(c.rawFaults)
	}
	m["uvm.evictions"] = float64(c.evictions)
	m["uvm.migrated_pages"] = float64(c.migrated)
	m["uvm.prefetched_pages"] = float64(c.prefetched)
	m["hostos.unmap_calls"] = float64(c.unmapCalls)
	m["hostos.pages_populated"] = float64(c.populated)
	m["hostos.radix_nodes"] = float64(c.radixNodes)
	m["interconnect.ops"] = float64(c.linkOps)
	m["interconnect.to_gpu_mb"] = float64(c.toGPU) / (1 << 20)
	m["interconnect.to_host_mb"] = float64(c.toHost) / (1 << 20)
	m["audit.snapshots"] = float64(c.snapshots)
}
