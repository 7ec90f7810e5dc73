package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update-goldens", false,
	"rewrite testdata/paperfigs.sha256 from the current experiments")

// paperfigsManifest holds one SHA-256 per experiment artifact, in
// sha256sum format ("<hex>  <id>").
var paperfigsManifest = filepath.Join("testdata", "paperfigs.sha256")

// artifactDigest renders an artifact the way paperfigs writes it
// (aligned tables, CSV tables and series, notes) and returns the SHA-256
// of the bytes.
func artifactDigest(a *Artifact) string {
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

func readManifest(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(paperfigsManifest)
	if err != nil {
		t.Fatalf("missing manifest (run with -update-goldens to freeze): %v", err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("%s: malformed line %q", paperfigsManifest, line)
		}
		m[f[1]] = f[0]
	}
	return m
}

// writeManifest writes one line per experiment, in registry order.
func writeManifest(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, g := range All() {
		fmt.Fprintf(&b, "%s  %s\n", got[g.ID], g.ID)
	}
	if err := os.WriteFile(paperfigsManifest, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	gens := All()
	if len(gens) != 28 {
		t.Fatalf("registry has %d experiments, want 28 (tables+figures, breakdown, architectures, 6 ablations, multi-GPU extension)", len(gens))
	}
	seen := map[string]bool{}
	for _, g := range gens {
		if g.ID == "" || g.Title == "" || g.Run == nil {
			t.Fatalf("incomplete generator %+v", g)
		}
		if seen[g.ID] {
			t.Fatalf("duplicate experiment id %q", g.ID)
		}
		seen[g.ID] = true
	}
	if _, ok := Find("table2"); !ok {
		t.Fatal("Find failed for table2")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find matched unknown id")
	}
}

// TestFastExperiments runs the cheap experiments end-to-end and checks
// their key paper claims hold in the output.
func TestFastExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}

	t.Run("fig03", func(t *testing.T) {
		a, err := Fig03()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tables) == 0 || len(a.Series) == 0 {
			t.Fatal("missing output")
		}
		// First batch must be 56 faults per the µTLB limit.
		if a.Tables[0].Rows[0][1] != "56" {
			t.Fatalf("first batch = %s, want 56", a.Tables[0].Rows[0][1])
		}
		for _, n := range a.Notes {
			if strings.Contains(n, "violations measured: true") {
				t.Fatal("scoreboard ordering violated")
			}
		}
	})

	t.Run("fig05", func(t *testing.T) {
		a, err := Fig05()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, n := range a.Notes {
			if strings.Contains(n, "measured max batch 256") {
				found = true
			}
		}
		if !found {
			t.Fatalf("prefetch batch did not hit the 256 limit: %v", a.Notes)
		}
	})

	t.Run("fig13", func(t *testing.T) {
		a, err := Fig13()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tables) == 0 {
			t.Fatal("no level table")
		}
		// At least one eviction count must exhibit both cost levels.
		found := false
		for _, n := range a.Notes {
			if strings.Contains(n, "exhibiting both levels") && !strings.Contains(n, "measured 0 ") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no eviction cost levels: %v", a.Notes)
		}
	})

	t.Run("fig14", func(t *testing.T) {
		a, err := Fig14()
		if err != nil {
			t.Fatal(err)
		}
		var reduction string
		for _, row := range a.Tables[0].Rows {
			if row[0] == "batch_reduction_pct" {
				reduction = row[1]
			}
		}
		if reduction == "" {
			t.Fatal("no batch reduction metric")
		}
	})

	t.Run("fig16", func(t *testing.T) {
		a, err := Fig16()
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Series) != 2 {
			t.Fatalf("case study series = %d, want profile+faults", len(a.Series))
		}
		if len(a.Series[1].Rows) == 0 {
			t.Fatal("no fault-behaviour rows")
		}
	})
}

// TestExperimentsDeterministic verifies that re-running an experiment
// yields identical notes (the simulator is seed-stable).
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	a, err := Fig05()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig05()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Notes) != len(b.Notes) {
		t.Fatal("note count differs between runs")
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			t.Fatalf("note %d differs:\n%s\n%s", i, a.Notes[i], b.Notes[i])
		}
	}
}

// TestAllExperimentsProduceOutput runs every generator — all paper
// figures/tables, the ablations, and the multi-GPU extension — and checks
// each emits well-formed artifacts whose rendered bytes hash to the
// committed manifest, so any change to paperfigs output fails here. This
// is the end-to-end guard on the reproduction harness.
func TestAllExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	var want map[string]string
	if !*updateGoldens {
		want = readManifest(t)
	}
	got := map[string]string{}
	ResetCache()
	for _, g := range All() {
		g := g
		t.Run(g.ID, func(t *testing.T) {
			a, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			got[g.ID] = artifactDigest(a)
			if want != nil && got[g.ID] != want[g.ID] {
				t.Errorf("rendered output hashes to %s, manifest has %q", got[g.ID], want[g.ID])
			}
			if a.ID != g.ID {
				t.Fatalf("artifact id %q != generator id %q", a.ID, g.ID)
			}
			if len(a.Tables)+len(a.Series) == 0 {
				t.Fatal("no tables or series")
			}
			if len(a.Notes) == 0 {
				t.Fatal("no observations")
			}
			for _, tb := range a.Tables {
				if len(tb.Headers) == 0 || len(tb.Rows) == 0 {
					t.Fatalf("empty table %q", tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Headers) {
						t.Fatalf("table %q: row width %d != header %d",
							tb.Title, len(row), len(tb.Headers))
					}
				}
			}
			for _, s := range a.Series {
				if len(s.Columns) == 0 {
					t.Fatalf("series %q has no columns", s.Title)
				}
				for _, row := range s.Rows {
					if len(row) != len(s.Columns) {
						t.Fatalf("series %q: row width mismatch", s.Title)
					}
				}
			}
		})
	}
	switch {
	case *updateGoldens && len(got) != len(All()):
		t.Fatalf("-update-goldens needs every experiment; %d of %d ran", len(got), len(All()))
	case *updateGoldens:
		writeManifest(t, got)
	case len(got) == len(All()) && len(want) != len(got):
		t.Errorf("%s has %d entries for %d experiments", paperfigsManifest, len(want), len(got))
	}
}
