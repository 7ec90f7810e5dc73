package uvm

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestWritePoliciesSortedListing locks the -list-policies contract:
// kinds appear in registration order (eviction first — tooling greps for
// it), and names within each kind are sorted.
func TestWritePoliciesSortedListing(t *testing.T) {
	var b strings.Builder
	WritePolicies(&b)
	out := b.String()
	var kinds []string
	var names []string
	flushKind := func() {
		if len(names) > 0 && !sort.StringsAreSorted(names) {
			t.Fatalf("kind %q names not sorted: %v", kinds[len(kinds)-1], names)
		}
		names = nil
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasSuffix(line, ":") {
			flushKind()
			kinds = append(kinds, strings.TrimSuffix(line, ":"))
			continue
		}
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	flushKind()
	want := []string{"eviction", "prefetch", "batch-sizing", "architecture"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kind order %v, want %v", kinds, want)
	}
	if !strings.HasPrefix(out, "eviction:") {
		t.Fatalf("listing does not start with the eviction group:\n%s", out)
	}
	for _, name := range []string{"access-counter", "gpu-driven", "host-driven"} {
		if !strings.Contains(out, name) {
			t.Fatalf("listing is missing architecture %q:\n%s", name, out)
		}
	}
}

// TestArchitectureUnknownNameListsOptions requires the architecture
// registry's rejection to carry the valid options in registration order.
func TestArchitectureUnknownNameListsOptions(t *testing.T) {
	_, err := ArchitectureByName("speculative")
	if err == nil {
		t.Fatal("unknown architecture accepted")
	}
	var upe *UnknownPolicyError
	if !errors.As(err, &upe) {
		t.Fatalf("error is %T, want *UnknownPolicyError", err)
	}
	want := []string{"host-driven", "gpu-driven", "access-counter"}
	if !reflect.DeepEqual(upe.Valid, want) {
		t.Fatalf("valid options %v, want %v", upe.Valid, want)
	}
	if !strings.Contains(err.Error(), "host-driven, gpu-driven, access-counter") {
		t.Fatalf("error %q does not list the options", err)
	}
}

// TestArchitectureLabelContract pins the declared stage/step labels to
// the stage graph itself: registerArchitecture derives them from the
// name() methods, so a drifting label is a registration-time change.
func TestArchitectureLabelContract(t *testing.T) {
	host, err := ArchitectureByName("host-driven")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"dedup", "service", "cross-block", "replay"}; !reflect.DeepEqual(host.Stages, want) {
		t.Fatalf("host-driven stages %v, want %v", host.Stages, want)
	}
	if want := []string{"residency", "prefetch-plan", "populate", "transfer"}; !reflect.DeepEqual(host.BlockSteps, want) {
		t.Fatalf("host-driven block steps %v, want %v", host.BlockSteps, want)
	}
	ac, err := ArchitectureByName("access-counter")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"counter-gate", "residency", "prefetch-plan", "populate", "transfer"}; !reflect.DeepEqual(ac.BlockSteps, want) {
		t.Fatalf("access-counter block steps %v, want %v", ac.BlockSteps, want)
	}
	if len(ac.BlockSteps) > maxBlockSteps {
		t.Fatalf("access-counter declares %d block steps, cap is %d", len(ac.BlockSteps), maxBlockSteps)
	}
}
