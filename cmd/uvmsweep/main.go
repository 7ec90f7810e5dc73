// Command uvmsweep runs a driver-policy parameter grid over one workload
// and emits a CSV of outcomes — the bulk-experimentation companion to
// uvmsim. Sweeps cover batch size, prefetching, capacity (oversubscription
// ratio), eviction policy, batch sizing and architecture.
//
// uvmsweep is an in-process client of the sweepd planner: its flags fill
// a sweepd.JobSpec, JobSpec.Points expands and validates the grid, and
// every point runs through sweepd.SimulatePoint (invariant auditor on)
// and prints as PointRow.CSV. Grid points run on a worker pool (-jobs,
// default GOMAXPROCS); rows are emitted in grid order, so the CSV is
// byte-identical at any -jobs value.
//
// Usage:
//
//	uvmsweep -workload gauss-seidel -n 3072 > sweep.csv
//	uvmsweep -workload stream -mb 16 -batches 128,256,1024 -caps 24,32,64 -jobs 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"guvm/internal/experiments"
	"guvm/internal/obs"
	"guvm/internal/sim"
	"guvm/internal/sweepd"
	"guvm/internal/uvm"
)

// fatal reports err and exits: 2 for a bad command line, 1 for a run
// that failed.
func fatal(code int, err error) {
	fmt.Fprintf(os.Stderr, "uvmsweep: %v\n", err)
	os.Exit(code)
}

// intList parses a comma-separated list of integers, exiting 2 on a bad
// element.
func intList(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(2, fmt.Errorf("bad list element %q", f))
		}
		out = append(out, v)
	}
	return out
}

func main() {
	var (
		name    = flag.String("workload", "gauss-seidel", "workload to sweep")
		mb      = flag.Uint64("mb", 64, "footprint knob in MiB")
		n       = flag.Int("n", 3072, "problem dimension for gemm/gauss-seidel/spmv")
		seed    = flag.Uint64("seed", 11, "workload seed")
		batches = flag.String("batches", "256", "comma-separated batch size limits")
		caps    = flag.String("caps", "32,64,256", "comma-separated GPU capacities in MiB")
		// Shared sweep policy flag block: comma lists per registry dimension
		// (-prefetch/-evict/-batch-sizing/-arch) plus -list-policies.
		plf  = uvm.RegisterPolicyListFlags(flag.CommandLine)
		jobs = flag.Int("jobs", runtime.GOMAXPROCS(0), "number of sweep points to run concurrently")
		// Shared obs flag set: -trace-out records one wall-clock span per
		// grid point; the metrics flags publish/sample sweep progress.
		ofl = obs.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()

	// Graceful drain: SIGINT/SIGTERM stops feeding new grid points to the
	// pool; in-flight points finish and their rows are still emitted, so
	// the partial CSV is always a clean prefix of the full sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if plf.HandleList(os.Stdout) {
		return
	}

	// Expand the grid up front: Points validates the workload, its size
	// and every policy name before any simulation runs, so a bad sweep is
	// rejected (with the valid options) with exit 2.
	spec := sweepd.JobSpec{
		Workload: *name, MB: *mb, N: *n, Seed: *seed,
		Batches:  intList(*batches),
		CapsMB:   intList(*caps),
		Evict:    strings.Split(plf.Eviction, ","),
		Prefetch: strings.Split(plf.Prefetch, ","),
		Sizing:   strings.Split(plf.BatchSizing, ","),
		Arch:     strings.Split(plf.Architecture, ","),
	}
	grid, err := spec.Points()
	if err != nil {
		fatal(2, err)
	}

	// Opt-in live progress endpoint and sampled progress series. Counters
	// advance only in the ordered collect callback (main goroutine), so
	// publishing never races the worker pool and the CSV stays
	// byte-identical at any -jobs value. The sampled series is keyed by
	// completed-point count (not wall time), so -metrics-csv/-metrics-json
	// are deterministic too.
	var prog *obs.Observer
	done := 0
	faults := 0
	if ofl.SamplingRequested() {
		prog = obs.New(obs.Config{SampleInterval: ofl.SampleEvery()})
		total := prog.Registry.Gauge("guvm_sweep_points_total", "Grid points in this sweep")
		total.Set(float64(len(grid)))
		prog.Registry.Func("guvm_sweep_points_done_total", "Grid points completed",
			func() float64 { return float64(done) })
		prog.Registry.Func("guvm_sweep_faults_total", "Faults across completed grid points",
			func() float64 { return float64(faults) })
		prog.SetStatusFunc(func() any {
			return map[string]any{"workload": *name, "points": len(grid), "done": done}
		})
		prog.Publish()
		if ofl.MetricsAddr != "" {
			srv, err := obs.Serve(ofl.MetricsAddr, prog)
			if err != nil {
				fatal(2, err)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "metrics: serving on %s\n", srv.Addr())
		}
	}
	// Optional harness trace: one wall-clock span per grid point on a
	// single lane, placed at [collection-elapsed, collection] relative to
	// program start (approximate for points that finished while an earlier
	// one was pending collection).
	var harness *obs.Tracer
	progStart := time.Now()
	if ofl.TraceOut != "" {
		harness = obs.NewTracer()
		harness.Lanes = map[int]string{1: "sweep points"}
	}

	type outcome struct {
		row     sweepd.PointRow
		elapsed time.Duration
		err     error
	}
	fmt.Println(sweepd.CSVHeader)
	runErr := experiments.ForEachOrdered(ctx, len(grid), *jobs, func(i int) outcome {
		pointStart := time.Now()
		row, _, err := sweepd.SimulatePoint(grid[i])
		return outcome{row: row, elapsed: time.Since(pointStart), err: err}
	}, func(i int, o outcome) {
		if o.err != nil {
			fatal(1, o.err)
		}
		fmt.Println(o.row.CSV())
		done++
		faults += o.row.Faults
		if harness != nil {
			end := sim.Time(time.Since(progStart).Nanoseconds())
			start := end - sim.Time(o.elapsed.Nanoseconds())
			if start < 0 {
				start = 0
			}
			p := grid[i]
			harness.Add(1, "point", fmt.Sprintf("bs=%d cap=%d %s/%s/%s/%s",
				p.BatchSize, p.CapMB, p.Prefetch, p.Evict, p.Sizing, p.Arch),
				start, end-start, i)
		}
		if prog != nil {
			if i%prog.Sampler.Interval == 0 {
				prog.Sampler.Sample(sim.Time(done), i)
			}
			prog.Publish()
		}
	})
	// Artifact tails go to stderr: stdout is the sweep CSV.
	logf := func(format string, a ...any) (int, error) {
		return fmt.Fprintf(os.Stderr, format, a...)
	}
	var sampler *obs.Sampler
	if prog != nil {
		sampler = prog.Sampler
	}
	if err := ofl.WriteArtifacts(harness, sampler, logf); err != nil {
		fatal(1, err)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "uvmsweep: interrupted (%v): emitted %d of %d grid points\n",
			runErr, done, len(grid))
		os.Exit(130)
	}
}
