package workloads

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// builderCases returns every workload type over several sizes, including
// GEMM shapes whose rows share pages (a row narrower than a page) and
// whose rows straddle page boundaries.
func builderCases(t *testing.T) []Workload {
	t.Helper()
	trace, err := ParseTrace(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	return []Workload{
		NewVecAddPaper(),
		&VecAddPaper{Threads: 7, Iterations: 5},
		NewVecAddPrefetch(),
		NewVecAddCoalesced(),
		&VecAddCoalesced{PagesPerVector: 30, Warps: 4},
		NewRegular(16<<20, 32),
		NewRegular(3<<20+5*mem.PageSize, 7),
		NewRandom(16<<20, 16, 50, 42),
		NewRandom(8<<20, 5, 13, 9),
		NewStream(8<<20, 16),
		&Stream{BytesPerArray: 3<<20 + 3*mem.PageSize, Blocks: 7, ChunkPages: 3,
			ComputePerChunk: sim.Microsecond, Iterations: 2, ShadowWarps: 2},
		NewStream(mem.PageSize*5, 8), // more blocks than chunks
		NewSGEMM(1024),
		NewSGEMM(512),  // 2 KiB rows: two rows per page
		NewDGEMM(256),  // 2 KiB rows, one tile
		NewSGEMM(1280), // 5 KiB rows: panels straddle page boundaries
		&GEMM{N: 384, Elem: 4, Tile: 128, ChunkPages: 3, ComputePerChunk: sim.Microsecond},
		&GEMM{N: 96, Elem: 8, Tile: 32, ChunkPages: 1, ComputePerChunk: sim.Microsecond},
		NewFFT(1<<20, 16),
		NewFFT(1<<16, 5),
		NewSpMV(1<<16, 8, 3),
		NewSpMV(3000, 5, 11),
		NewGaussSeidel(1024, 2),
		&GaussSeidel{Rows: 700, Cols: 900, Iterations: 1, BandRows: 9, Stripes: 4,
			ChunkPages: 5, ComputePerChunk: sim.Microsecond},
		NewHPGMG(16<<20, 4),
		NewHPGMG(8<<20, 1),
		trace,
	}
}

// TestBuildersMatchOracle checks that every workload's programs, block by
// block, equal those the original per-op PageRange builders produce.
func TestBuildersMatchOracle(t *testing.T) {
	for _, w := range builderCases(t) {
		bases := fakeBases(w.Allocs())
		got, want := w.Phases(bases), oraclePhases(w, bases)
		if len(got) != len(want) {
			t.Fatalf("%s: %d phases, oracle %d", w.Name(), len(got), len(want))
		}
		for i := range got {
			g, o := got[i], want[i]
			if g.Name != o.Name || !reflect.DeepEqual(g.HostTouches, o.HostTouches) ||
				g.Kernel.NumBlocks != o.Kernel.NumBlocks {
				t.Fatalf("%s phase %d: header differs from the oracle", w.Name(), i)
			}
			for b := 0; b < g.Kernel.NumBlocks; b++ {
				gp, op := g.Kernel.BlockProgram(b), o.Kernel.BlockProgram(b)
				if !reflect.DeepEqual(gp, op) {
					t.Fatalf("%s phase %d block %d: programs differ from the oracle", w.Name(), i, b)
				}
			}
		}
	}
}

// cloneProgs deep-copies programs so later writes through them show.
func cloneProgs(progs []gpu.Program) []gpu.Program {
	out := make([]gpu.Program, len(progs))
	for i, p := range progs {
		out[i] = make(gpu.Program, len(p))
		for j, op := range p {
			op.Pages = slices.Clone(op.Pages)
			op.Deps = slices.Clone(op.Deps)
			out[i][j] = op
		}
	}
	return out
}

// TestCarvedListsDoNotAlias appends to every op's page and dependency
// lists and checks that no other op (nor the shared dependency lists)
// changed: each carved list is capped at its own length.
func TestCarvedListsDoNotAlias(t *testing.T) {
	const sentinel = mem.PageID(1 << 60)
	for _, w := range builderCases(t) {
		bases := fakeBases(w.Allocs())
		for pi, ph := range w.Phases(bases) {
			for b := 0; b < ph.Kernel.NumBlocks; b++ {
				progs := ph.Kernel.BlockProgram(b)
				before := cloneProgs(progs)
				for _, prog := range progs {
					for i := range prog {
						_ = append(prog[i].Pages, sentinel)
						_ = append(prog[i].Deps, 99)
					}
				}
				if !reflect.DeepEqual(cloneProgs(progs), before) {
					t.Fatalf("%s phase %d block %d: appending to one op's list changed another op", w.Name(), pi, b)
				}
			}
		}
	}
	shared := [][]int{deps0, deps1, deps01, deps012}
	if !reflect.DeepEqual(shared, [][]int{{0}, {1}, {0, 1}, {0, 1, 2}}) {
		t.Fatalf("shared dependency lists corrupted: %v", shared)
	}
}

// TestBlockBuildAllocs bounds the allocations of building one block: a
// page buffer, the programs, and the program list — not one slice per op.
func TestBlockBuildAllocs(t *testing.T) {
	for _, tc := range []struct {
		w     Workload
		block int
		max   float64
	}{
		// Page buffer, lead and shadow programs, program list.
		{NewStream(64<<20, 24), 5, 4},
		// Page buffer, program, program list.
		{NewSGEMM(2048), 9, 3},
	} {
		k := tc.w.Phases(fakeBases(tc.w.Allocs()))[0].Kernel
		got := testing.AllocsPerRun(20, func() { k.BlockProgram(tc.block) })
		if got > tc.max {
			t.Errorf("%s: building block %d made %.0f allocations, want <= %.0f", tc.w.Name(), tc.block, got, tc.max)
		}
	}
}
