package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/stream.golden.csv from the current binary")

// buildSweep compiles the real binary into a temp dir.
func buildSweep(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "uvmsweep")
	build := exec.Command(goTool, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCSVGolden pins the sweep CSV byte for byte on a 32-point stream
// grid that crosses every swept dimension, at one and two workers: rows
// come out in grid order whatever the pool size.
func TestCSVGolden(t *testing.T) {
	bin := buildSweep(t)
	golden := filepath.Join("testdata", "stream.golden.csv")
	for _, jobs := range []string{"1", "2"} {
		cmd := exec.Command(bin, "-workload", "stream", "-mb", "8",
			"-batches", "128,256", "-caps", "4,8", "-evict", "lru,fifo",
			"-prefetch", "on,off", "-arch", "host-driven,gpu-driven", "-jobs", jobs)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("-jobs %s: %v\n%s", jobs, err, stderr.Bytes())
		}
		if *updateGoldens && jobs == "1" {
			if err := os.WriteFile(golden, out, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update-goldens to freeze): %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Errorf("-jobs %s: CSV differs from %s\ngot:\n%s\nwant:\n%s", jobs, golden, out, want)
		}
	}
}

// TestUnknownPolicyExits2 checks that a bad policy name is rejected
// before any point runs, with the valid options named.
func TestUnknownPolicyExits2(t *testing.T) {
	bin := buildSweep(t)
	out, err := exec.Command(bin, "-workload", "stream", "-mb", "8", "-evict", "clock").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-evict clock: want exit code 2, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "valid: lru, fifo, random, lfu") {
		t.Errorf("rejection does not name the valid options:\n%s", out)
	}
}
