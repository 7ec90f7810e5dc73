package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchSpec is the part of BENCHMARK.json the self-check reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runSelfCheck runs two sets of n runs of every workload BENCHMARK.json
// lists, each run in a fresh process of this binary with a seed of its
// own, its full output kept under outDir/selfcheck, workloads
// interleaved so that drift on the host reaches all of them alike. For
// every end-to-end metric and workload it reports each set's median and
// quartiles, the spread of each set (interquartile distance over median),
// the change of the median from the first set to the second, and the
// bound BENCHMARK.json fixes. A metric is steady when both spreads and the
// change stay within a third of its bound; setup_s is held only to its
// change, since a set-up's spread between runs is not bounded.
func runSelfCheck(n, seconds int) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	logDir := filepath.Join(outDir, "selfcheck")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	fmt.Println(hostFingerprint())
	// vals[set][workload][metric] holds one value per run.
	vals := [2]map[string]map[string][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			seed := uint64(1 + set*n + i)
			for _, wl := range spec.Workloads {
				w := wl.Name
				cmd := exec.Command(exe, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0")
				began := time.Now()
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, seed, err)
				}
				log := filepath.Join(logDir, fmt.Sprintf("set%d-run%02d-%s.txt", set+1, i+1, w))
				if err := os.WriteFile(log, out, 0o644); err != nil {
					return err
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", w, seed, res.Failed, res.Attempted)
				}
				if vals[set][w] == nil {
					vals[set][w] = map[string][]float64{}
				}
				var parts []string
				for _, m := range spec.EndToEnd {
					v := res.Metrics[m.Name].Value
					vals[set][w][m.Name] = append(vals[set][w][m.Name], v)
					parts = append(parts, fmt.Sprintf("%s=%.4g", m.Name, v))
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d: %s (run took %.1f s)\n",
					set+1, i+1, w, seed, strings.Join(parts, " "), time.Since(began).Seconds())
			}
		}
	}

	steady := true
	fmt.Printf("%-14s %-18s %30s %7s %30s %7s %8s %6s  %s\n",
		"workload", "metric", "set 1 median [q1..q3]", "spread", "set 2 median [q1..q3]", "spread", "change", "bound", "verdict")
	for _, wl := range spec.Workloads {
		w := wl.Name
		for _, m := range spec.EndToEnd {
			a, b := vals[0][w][m.Name], vals[1][w][m.Name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			change := 0.0
			if am != 0 {
				change = (bm - am) / am
			}
			if m.Better == "higher" {
				change = -change
			}
			ok := change <= m.Bound/3
			if m.Name != "setup_s" {
				ok = ok && spread(a) <= m.Bound/3 && spread(b) <= m.Bound/3
			}
			verdict := "steady"
			if !ok {
				verdict = "NOT STEADY"
				steady = false
			}
			fmt.Printf("%-14s %-18s %12.4f [%7.4f..%7.4f] %6.2f%% %12.4f [%7.4f..%7.4f] %6.2f%% %+7.2f%% %5.1f%%  %s\n",
				w, m.Name, am, a1, a3, 100*spread(a), bm, b1, b3, 100*spread(b), 100*change, 100*m.Bound, verdict)
		}
	}
	if !steady {
		return fmt.Errorf("some metrics are not steady within a third of their bound")
	}
	fmt.Println("every end-to-end metric is steady within a third of its bound")
	return nil
}
