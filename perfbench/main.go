// Command perfbench is guvm's end-to-end benchmark. For one workload it
// sets up several times, runs untraced timed passes for the requested
// number of seconds, checks every pass's simulated output against
// recorded values, and prints each end-to-end metric with its unit. With
// -trace 1 it then runs one more pass with spans and a CPU profile and
// prints the per-layer metrics instead. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 196, "failed": 0, "metrics": {"wall_s": {"value": 7.61, "unit": "s"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload paperfigs --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --selfcheck 10 --seconds 30   # steadiness evidence
//	bash perfbench/run.sh --workload sweep-oversub --seed 1 --record
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"guvm/internal/experiments"
)

// setups is the number of set-ups per run; setup_s is their median.
const setups = 3

// outDir holds the benchmark's scratch files and trace output, relative
// to the repository root.
const outDir = ".bench_build/perfbench"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the simulator sees, in output
// order. fail_ratio is printed beside them but carried in the result's
// attempted and failed counts, since it is 0 on every good run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb_per_pass", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced pass, in output
// order. A metric a workload cannot reach reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"}, {"sim.ns_per_event", "ns"}, {"sim.cpu_pct", "%"},
		{"gpu.faults_emitted", "count"}, {"gpu.dup_faults", "count"}, {"gpu.refaults", "count"}, {"gpu.cpu_pct", "%"},
		{"uvm.batches", "count"}, {"uvm.faults", "count"}, {"uvm.unique_fault_ratio", "ratio"},
		{"uvm.evictions", "count"}, {"uvm.migrated_pages", "count"}, {"uvm.prefetched_pages", "count"}, {"uvm.cpu_pct", "%"},
		{"hostos.unmap_calls", "count"}, {"hostos.pages_populated", "count"}, {"hostos.radix_nodes", "count"}, {"hostos.cpu_pct", "%"},
		{"interconnect.ops", "count"}, {"interconnect.to_gpu_mb", "MB"}, {"interconnect.to_host_mb", "MB"},
		{"mem.cpu_pct", "%"}, {"gpumem.cpu_pct", "%"},
		{"audit.cpu_pct", "%"}, {"audit.snapshots", "count"},
		{"workloads.cpu_pct", "%"},
	}
	for _, g := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + g.ID + "_s", "s"})
	}
	return append(defs,
		metricDef{"experiments.render_ms", "ms"},
		metricDef{"sweepd.points_per_s", "1/s"}, metricDef{"sweepd.point_p50_ms", "ms"},
		metricDef{"sweepd.point_tail_ms", "ms"}, metricDef{"sweepd.cache_hits", "count"},
		metricDef{"sweepd.cache_hit_ms", "ms"}, metricDef{"sweepd.retries", "count"}, metricDef{"sweepd.cpu_pct", "%"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_cpu_pct", "%"},
		metricDef{"runtime.mallocs", "count"}, metricDef{"runtime.heap_peak_mb", "MB"},
		metricDef{"trace.overhead_pct", "%"},
	)
}

// profiledLayers are the layers whose share of the traced pass's CPU
// profile is reported as <layer>.cpu_pct.
var profiledLayers = []string{"sim", "gpu", "uvm", "hostos", "mem", "gpumem", "audit", "workloads", "sweepd"}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds of timed passes per run")
	traceFlag := flag.Int("trace", 0, "1 runs one extra traced pass and reports per-layer metrics")
	rec := flag.Bool("record", false, "run one pass and merge its outputs into "+expectedFile)
	selfcheck := flag.Int("selfcheck", 0, "run two sets of this many runs per workload and report their steadiness")
	flag.Parse()

	if *selfcheck > 0 {
		if err := runSelfCheck(*selfcheck, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		start:    start,
		scratch:  scratch,
		outDir:   outDir,
		expected: exp.lookup(*workload, *seed),
	}
	fmt.Println(hostFingerprint())
	if *rec {
		err = recordRun(cfg)
	} else {
		err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(scratch)
		os.Exit(1)
	}
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	start    time.Time // process start, where the first set-up begins
	scratch  string    // temporary files, removed at exit
	outDir   string    // trace output
	expected map[string]string
}

// tally accumulates operations and correctness failures over every pass
// of a run, set-ups and the traced pass included.
type tally struct {
	ref       map[string]string
	attempted int
	failed    int
	problems  []string
}

func (t *tally) add(r passResult) {
	t.attempted += r.ops
	t.failed += r.failed
	t.problems = append(t.problems, r.problems...)
	if t.ref == nil {
		// No recorded values for this seed: the first pass is the
		// reference every later pass must reproduce.
		t.ref = r.obs
		return
	}
	bad := gate(t.ref, r.obs)
	t.failed += len(bad)
	t.problems = append(t.problems, bad...)
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	numGC   uint32
	maxRSS  int64 // KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		maxRSS:  ru.Maxrss,
	}
}

func run(cfg runConfig, out io.Writer) error {
	t := tally{ref: cfg.expected}
	refSource := "recorded values"
	if cfg.expected == nil {
		refSource = "the first pass (no values recorded for this seed)"
	}

	// Set-up: build the inputs and run one cold, untimed pass, several
	// times over; the first set-up also pays for process start.
	var w workload
	var setupS []float64
	begin := cfg.start
	for i := 0; i < setups; i++ {
		var err error
		if w, err = newWorkload(cfg.workload, cfg.seed, cfg.scratch); err != nil {
			return err
		}
		t.add(w.pass(nil, 0))
		setupS = append(setupS, time.Since(begin).Seconds())
		runtime.GC()
		begin = time.Now()
	}

	var wall, cpu, alloc []float64
	timed := time.Now()
	for len(wall) == 0 || time.Since(timed) < time.Duration(cfg.seconds)*time.Second {
		runtime.GC() // every pass starts from a collected heap
		u0 := readUsage()
		r := w.pass(nil, 0)
		u1 := readUsage()
		t.add(r)
		wall = append(wall, u1.at.Sub(u0.at).Seconds())
		cpu = append(cpu, (u1.cpu - u0.cpu).Seconds())
		alloc = append(alloc, float64(u1.alloc-u0.alloc)/1e6)
	}
	rss := float64(readUsage().maxRSS) / 1024

	e2e := map[string]float64{
		"setup_s":           median(setupS),
		"wall_s":            median(wall),
		"cpu_s":             median(cpu),
		"alloc_mb_per_pass": median(alloc),
		"peak_rss_mb":       rss,
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d traced=%t closed loop, 1 client, 1 simulation goroutine\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	printSeries(out, "setup_s", "s", setupS, "set-ups")
	printSeries(out, "wall_s", "s", wall, "passes")
	printSeries(out, "cpu_s", "s", cpu, "passes")
	printSeries(out, "alloc_mb_per_pass", "MB", alloc, "passes")
	fmt.Fprintf(out, "%-24s %14.4f %-6s process high-water mark, n=1\n", "peak_rss_mb", rss, "MB")

	metricsOut := map[string]any{}
	if cfg.trace {
		layer, err := tracedPass(cfg, w, &t, median(wall), out)
		if err != nil {
			return err
		}
		for _, d := range perLayer() {
			metricsOut[d.name] = metricValue{layer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			metricsOut[d.name] = metricValue{e2e[d.name], d.unit}
		}
	}

	ratio := float64(t.failed) / float64(max(t.attempted, 1))
	fmt.Fprintf(out, "%-24s %14.4f %-6s %d failed of %d attempted; outputs checked against %s\n",
		"fail_ratio", ratio, "ratio", t.failed, t.attempted, refSource)
	for i, p := range t.problems {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(t.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   t.failed == 0,
		"attempted": t.attempted,
		"failed":    t.failed,
		"metrics":   metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if t.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or mismatched", t.failed, t.attempted)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printSeries(out io.Writer, name, unit string, v []float64, what string) {
	q1, m, q3 := quartiles(v)
	each := make([]string, len(v))
	for i, x := range v {
		each[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	fmt.Fprintf(out, "%-24s %14.4f %-6s median of %d %s, quartiles %.4f..%.4f: %s\n",
		name, m, unit, len(v), what, q1, q3, strings.Join(each, " "))
}

// tracedPass runs one more pass with spans and a CPU profile, writes both
// under cfg.outDir, and returns the per-layer metrics.
func tracedPass(cfg runConfig, w workload, t *tally, untracedWall float64, out io.Writer) (map[string]float64, error) {
	tl := &spanLog{t0: cfg.start}
	root := tl.begin(0, "pass "+cfg.workload)
	var prof bytes.Buffer
	runtime.GC()
	c0 := readCPUClasses()
	u0 := readUsage()
	stopHeap := sampleHeapPeak()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	r := w.pass(tl, root)
	pprof.StopCPUProfile()
	heapPeak := stopHeap()
	u1 := readUsage()
	c1 := readCPUClasses()
	tl.end(root)
	w.countLayers(&r)
	t.add(r)

	layer := r.layer
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range profiledLayers {
		layer[l+".cpu_pct"] = shares[l]
	}
	passWall := u1.at.Sub(u0.at).Seconds()
	if cfg.workload == "sweep-oversub" {
		// Grid points per untraced pass second; a pass submits the grid twice.
		layer["sweepd.points_per_s"] = float64(r.ops/2) / untracedWall
	}
	layer["runtime.gc_cycles"] = float64(u1.numGC - u0.numGC)
	if busy := c1.total - c1.idle - (c0.total - c0.idle); busy > 0 {
		layer["runtime.gc_cpu_pct"] = 100 * (c1.gc - c0.gc) / busy
	}
	layer["runtime.mallocs"] = float64(u1.mallocs - u0.mallocs)
	layer["runtime.heap_peak_mb"] = float64(heapPeak) / 1e6
	layer["trace.overhead_pct"] = 100 * (passWall/untracedWall - 1)

	base := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d", cfg.workload, cfg.seed))
	if err := tl.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}

	fmt.Fprintf(out, "traced pass: %.4f s (untraced median %.4f s); spans %s.spans.json, profile %s.cpu.pprof\n",
		passWall, untracedWall, base, base)
	for _, d := range perLayer() {
		fmt.Fprintf(out, "%-32s %16.4f %s\n", d.name, layer[d.name], d.unit)
	}
	var other []string
	for _, l := range sortedKeys(shares) {
		if !slices.Contains(profiledLayers, l) {
			other = append(other, fmt.Sprintf("%s=%.1f%%", l, shares[l]))
		}
	}
	fmt.Fprintf(out, "cpu shares of other code: %s\n", strings.Join(other, " "))
	fmt.Fprintf(out, "uvm.unique_fault_ratio base: %.0f fetched faults\n", layer["uvm.fetched_faults"])
	if cfg.workload == "sweep-oversub" {
		fmt.Fprintf(out, "sweepd.point_tail_ms is p%g of %.0f fresh points (at least %d beyond it)\n",
			layer["sweepd.point_tail_pct"], layer["sweepd.point_samples"], minBeyond)
	}
	if cfg.workload == "paperfigs" {
		fmt.Fprintln(out, "component counts (sim/gpu/uvm/hostos/interconnect/audit) read 0: the experiments build their simulators internally")
	}
	return layer, nil
}

// cpuClasses are the runtime's cumulative CPU-time estimates, in seconds.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// sampleHeapPeak samples the live heap every 10 ms until the returned
// function is called; that function stops the sampler, waits for it and
// returns the highest reading in bytes.
func sampleHeapPeak() func() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// recordRun runs one pass and merges its outputs into the expected-values
// file.
func recordRun(cfg runConfig) error {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scratch)
	if err != nil {
		return err
	}
	r := w.pass(nil, 0)
	if r.failed > 0 {
		return fmt.Errorf("not recording a failed pass: %s", strings.Join(r.problems, "; "))
	}
	if err := record(cfg.workload, cfg.seed, r.obs); err != nil {
		return err
	}
	fmt.Printf("recorded %d outputs of %s seed %d in %s\n", len(r.obs), cfg.workload, cfg.seed, expectedFile)
	return nil
}

// hostFingerprint names what the measurements depend on: CPU model, CPU
// count, GOMAXPROCS, Go version and the source revision.
func hostFingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			rev += "+modified"
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

// spanLog keeps the spans of the traced pass in memory. A nil *spanLog
// records nothing, so untraced passes share the traced code path.
type spanLog struct {
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

// begin opens a span and returns its id.
func (l *spanLog) begin(parent int, name string) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].End = int64(time.Since(l.t0))
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
