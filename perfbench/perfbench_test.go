package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"guvm"
	"guvm/internal/experiments"
	"guvm/internal/sim"
	"guvm/internal/workloads"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON checks every metric and workload name
// against the allowed alphabet and checks that BENCHMARK.json declares
// exactly the metrics and units the program emits, and only workloads it
// has.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s: metric %q used twice", kind, d.name)
			}
			seen[d.name] = true
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
	if len(spec.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if !nameRE.MatchString(w.Name) || !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, workloadNames)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload for the shortest
// run (set-ups plus one timed pass) and checks the result line: correct,
// and every end-to-end metric present with its unit and a positive value.
// One workload also runs traced and must emit every per-layer metric.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (about a minute)")
	}
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		traced := w == "explicit-gemm"
		res := runWorkload(t, runConfig{
			workload: w, seed: 1, trace: traced, start: time.Now(),
			scratch: t.TempDir(), outDir: t.TempDir(), expected: exp.lookup(w, 1),
		})
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w, res.Correct, res.Failed, res.Attempted)
		}
		want := endToEnd
		if traced {
			want = perLayer()
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", w, len(res.Metrics), len(want))
		}
		for _, d := range want {
			m, ok := res.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w, d.name)
			case m.Unit != d.unit:
				t.Errorf("%s: metric %s unit %q, want %q", w, d.name, m.Unit, d.unit)
			case !traced && !(m.Value > 0):
				t.Errorf("%s: metric %s = %v, want > 0", w, d.name, m.Value)
			}
		}
	}
}

func runWorkload(t *testing.T, cfg runConfig) runResult {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Errorf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v\n%s", cfg.workload, err, out.String())
	}
	return res
}

// TestGateNegativeControl runs one explicit-gemm pass and checks it
// against the recorded values: it must pass as recorded and fail once one
// recorded value is perturbed. The paperfigs digests get the same
// perturbation through the gate alone.
func TestGateNegativeControl(t *testing.T) {
	exp, err := loadExpected(expectedJSON)
	if err != nil {
		t.Fatal(err)
	}
	ref := exp.lookup("explicit-gemm", 1)
	if len(ref) != 3*2*len(gemmSizes) {
		t.Fatalf("explicit-gemm: %d recorded values, want kernel/total/events for sgemm and dgemm at each size", len(ref))
	}
	r := newExplicitGEMM(1).pass(nil, 0)
	good := tally{ref: ref}
	good.add(r)
	if good.failed != 0 {
		t.Fatalf("recorded values: %d failures: %v", good.failed, good.problems)
	}
	keys := sortedKeys(r.obs)
	perturbed := map[string]string{}
	for k, v := range ref {
		perturbed[k] = v
	}
	perturbed[keys[0]] += "1"
	bad := tally{ref: perturbed}
	bad.add(r)
	if bad.failed != 1 {
		t.Fatalf("one perturbed value: %d failures, want 1: %v", bad.failed, bad.problems)
	}

	figs := exp.lookup("paperfigs", 1)
	if len(figs) != len(experiments.All()) {
		t.Fatalf("paperfigs: %d recorded digests, want 28", len(figs))
	}
	observed := map[string]string{}
	for k, v := range figs {
		observed[k] = v
	}
	if m := gate(figs, observed); len(m) != 0 {
		t.Fatalf("identical digests mismatch: %v", m)
	}
	observed["fig09"] = strings.Repeat("0", 64)
	if m := gate(figs, observed); len(m) != 1 || !strings.HasPrefix(m[0], "fig09:") {
		t.Fatalf("perturbed fig09 digest: mismatches %v, want one for fig09", m)
	}
}

// TestTailPercentileKeepsTenBeyond checks the tail picker on every sample
// count up to 400: a reported percentile always has at least ten samples
// ranked above it, and it is the highest ladder entry that does.
func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	rng := sim.NewRNG(7)
	for n := 0; n <= 400; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		pct, val, ok := tailPercentile(v)
		beyond := func(p float64) int { return n - max(int(math.Ceil(p/100*float64(n))), 1) }
		if !ok {
			if n > minBeyond && beyond(tailLadder[0]) >= minBeyond {
				t.Fatalf("n=%d: no percentile reported, but p%g has %d beyond", n, tailLadder[0], beyond(tailLadder[0]))
			}
			continue
		}
		if b := beyond(pct); b < minBeyond {
			t.Fatalf("n=%d: p%g has only %d samples beyond it", n, pct, b)
		}
		for _, p := range tailLadder {
			if p > pct && beyond(p) >= minBeyond {
				t.Fatalf("n=%d: picked p%g, but p%g also has %d beyond", n, pct, p, beyond(p))
			}
		}
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		if want := s[max(int(math.Ceil(pct/100*float64(n))), 1)-1]; val != want {
			t.Fatalf("n=%d p%g: value %v, want %v", n, pct, val, want)
		}
	}
}

// TestQuartilesMatchPython compares with statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7.61, 7.9, 8.2, 7.4, 8.0, 7.7, 7.65, 7.81, 8.3, 7.55}, 7.595, 7.755, 8.05},
	} {
		q1, m, q3 := quartiles(c.v)
		for _, p := range [][2]float64{{q1, c.q1}, {m, c.m}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
				break
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"guvm/internal/sim.(*Engine).Run":                              "sim",
		"guvm/internal/sweepd/store.(*Store).Commit":                   "sweepd",
		"guvm/internal/report.(*Table).String":                         "experiments",
		"guvm/internal/experiments.ForEachOrdered[go.shape.struct {}]": "experiments",
		"guvm.(*Simulator).run":                                        "guvm",
		"runtime.mallocgc":                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                      "runtime",
		"encoding/json.Marshal":                                        "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesFromRealProfile decodes a CPU profile of simulator work
// and checks that the shares add up and land on the simulator's layers.
func TestCPUSharesFromRealProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(time.Second); time.Now().Before(end); {
		s, err := guvm.NewSimulator(guvm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunExplicit(workloads.NewSGEMM(2048)); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-100) > 1e-6 {
		t.Fatalf("shares sum to %v%%: %v", total, shares)
	}
	if shares["sim"] <= 0 || shares["gpu"] <= 0 {
		t.Fatalf("no engine or GPU samples in a GEMM run: %v", shares)
	}
}
