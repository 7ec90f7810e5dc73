package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// expectedJSON holds the simulated outputs recorded for each workload:
// under "any" for outputs that do not depend on the seed, and under the
// seed otherwise. Regenerate entries with -record.
//
//go:embed expected.json
var expectedJSON []byte

// expectedFile is where -record writes, relative to the repository root.
const expectedFile = "perfbench/expected.json"

type expectedValues map[string]map[string]map[string]string

func loadExpected(b []byte) (expectedValues, error) {
	var e expectedValues
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected values: %w", err)
	}
	if e == nil {
		e = expectedValues{}
	}
	return e, nil
}

// lookup returns the recorded outputs for a workload and seed, or nil
// when none were recorded; the run then checks each pass against its
// first pass instead.
func (e expectedValues) lookup(workload string, seed uint64) map[string]string {
	key := "any"
	if seedScoped(workload) {
		key = strconv.FormatUint(seed, 10)
	}
	return e[workload][key]
}

// gate compares a pass's observed outputs with the reference and returns
// one line per mismatch, in key order. Every observed output must be in
// the reference with the same value.
func gate(ref, observed map[string]string) []string {
	var bad []string
	for k, v := range observed {
		want, ok := ref[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: %s has no expected value", k, v))
		case want != v:
			bad = append(bad, fmt.Sprintf("%s: got %s, want %s", k, v, want))
		}
	}
	sort.Strings(bad)
	return bad
}

// record merges one pass's observed outputs into the expected-values
// file.
func record(workload string, seed uint64, observed map[string]string) error {
	b, err := os.ReadFile(expectedFile)
	if err != nil {
		return err
	}
	e, err := loadExpected(b)
	if err != nil {
		return err
	}
	key := "any"
	if seedScoped(workload) {
		key = strconv.FormatUint(seed, 10)
	}
	if e[workload] == nil {
		e[workload] = map[string]map[string]string{}
	}
	if e[workload][key] == nil {
		e[workload][key] = map[string]string{}
	}
	for k, v := range observed {
		e[workload][key][k] = v
	}
	if b, err = json.MarshalIndent(e, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(b, '\n'), 0o644)
}
