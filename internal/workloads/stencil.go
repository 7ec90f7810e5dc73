package workloads

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// GaussSeidel models a red-black Gauss-Seidel smoother over a 2-D grid:
// repeated sweeps where each thread block owns a band of rows, reads the
// band plus halo rows, and writes the band in place. The grid is reused
// every iteration — high spatial locality per VABlock (Table 3: 2.3
// VABlocks/batch, 22 faults each) and, under oversubscription, the
// sweep-eviction-prefetch interplay of Figure 16.
type GaussSeidel struct {
	// Rows and Cols define the grid of float32 cells.
	Rows, Cols int
	// Iterations is the number of full sweeps.
	Iterations int
	// BandRows is the row count processed per dependent step.
	BandRows int
	// Stripes is the thread-block count; Gauss-Seidel's row-order data
	// dependence keeps concurrency low (each stripe sweeps its bands
	// sequentially), concentrating each batch in a couple of VABlocks
	// (Table 3: 2.31 VABlocks/batch).
	Stripes int
	// ChunkPages is the coalesced page window per step.
	ChunkPages int
	// ComputePerChunk paces the stencil math per chunk.
	ComputePerChunk sim.Time
}

// NewGaussSeidel returns a square Gauss-Seidel smoother.
func NewGaussSeidel(n, iterations int) *GaussSeidel {
	return &GaussSeidel{
		Rows: n, Cols: n, Iterations: iterations,
		BandRows: 32, Stripes: 3, ChunkPages: 16,
		ComputePerChunk: 15 * sim.Microsecond,
	}
}

// Name implements Workload.
func (w *GaussSeidel) Name() string { return "gauss-seidel" }

// GridBytes returns the grid footprint.
func (w *GaussSeidel) GridBytes() uint64 { return uint64(w.Rows) * uint64(w.Cols) * 4 }

// Allocs implements Workload.
func (w *GaussSeidel) Allocs() []Alloc {
	return []Alloc{{Name: "grid", Bytes: w.GridBytes(), HostInit: true, HostThreads: 1}}
}

// band returns the page runs band bi reads (the band plus one halo row
// above and below) and writes (the band itself).
func (w *GaussSeidel) band(base mem.Addr, bi int) (rFirst mem.PageID, rN int, wFirst mem.PageID, wN int) {
	rowBytes := uint64(w.Cols) * 4
	r0 := bi * w.BandRows
	r1 := min(r0+w.BandRows, w.Rows)
	h0, h1 := max(r0-1, 0), min(r1+1, w.Rows)
	rFirst, rN = byteSpan(base, uint64(h0)*rowBytes, uint64(h1-h0)*rowBytes)
	wFirst, wN = byteSpan(base, uint64(r0)*rowBytes, uint64(r1-r0)*rowBytes)
	return rFirst, rN, wFirst, wN
}

// Phases implements Workload.
func (w *GaussSeidel) Phases(bases []mem.Addr) []Phase {
	base := bases[0]
	bands := (w.Rows + w.BandRows - 1) / w.BandRows
	perStripe := (bands + w.Stripes - 1) / w.Stripes
	var phases []Phase
	for it := 0; it < w.Iterations; it++ {
		phases = append(phases, Phase{
			Name: "sweep",
			Kernel: gpu.Kernel{NumBlocks: w.Stripes, BlockProgram: func(blk int) []gpu.Program {
				b0, b1 := blk*perStripe, min((blk+1)*perStripe, bands)
				pages, ops := 0, 0
				for bi := b0; bi < b1; bi++ {
					_, rn, _, wn := w.band(base, bi)
					pages += rn + wn
					ops += 2*chunks(rn, w.ChunkPages) + chunks(wn, w.ChunkPages)
				}
				buf := newPageBuf(pages)
				prog := newProgram(ops)
				for bi := b0; bi < b1; bi++ {
					rFirst, rn, wFirst, wn := w.band(base, bi)
					// Row-order dependence: each chunk's loads feed
					// the stencil math before the next chunk issues.
					readPages := buf.run(rFirst, rn)
					for lo := 0; lo < len(readPages); lo += w.ChunkPages {
						hi := min(lo+w.ChunkPages, len(readPages))
						prog = append(prog,
							gpu.Read(0, readPages[lo:hi:hi]...),
							gpu.Compute(w.ComputePerChunk, deps0...),
						)
					}
					writePages := buf.run(wFirst, wn)
					for lo := 0; lo < len(writePages); lo += w.ChunkPages {
						hi := min(lo+w.ChunkPages, len(writePages))
						prog = append(prog, gpu.Write(deps0, writePages[lo:hi:hi]...))
					}
				}
				return []gpu.Program{prog}
			}},
		})
	}
	return phases
}

// HPGMG models the geometric multigrid proxy app (HPGMG-FV): V-cycles over
// a hierarchy of grid levels — smooth on the fine level, restrict down the
// hierarchy, smooth the coarse levels, prolong back up — with CPU-side
// work between cycles touching the fine grid from OpenMP-style threads.
// That host phase is the Figure-11 mechanism: multithreaded touching makes
// the driver's unmap_mapping_range calls far more expensive.
type HPGMG struct {
	// FineBytes is the finest-level grid footprint.
	FineBytes uint64
	// Levels is the V-cycle depth.
	Levels int
	// VCycles is how many V-cycles to run.
	VCycles int
	// HostThreads is the OpenMP-style CPU thread count for the host
	// phases between cycles (1 in Figure 11a, many in 11b).
	HostThreads int
	// HostTouchFraction is the share of the fine grid the host phase
	// re-touches between cycles.
	HostTouchFraction float64
	// SmoothsPerLevel is the smoother applications per level visit.
	SmoothsPerLevel int
	// Blocks is the thread-block count on the finest level. Box-order
	// dependences keep it low, concentrating batches in few VABlocks.
	Blocks int
	// ChunkPages is the coalesced page window per dependent step.
	ChunkPages int
	// ComputePerChunk paces the per-box stencil math.
	ComputePerChunk sim.Time
}

// NewHPGMG returns an HPGMG proxy with the given fine-level footprint.
func NewHPGMG(fineBytes uint64, hostThreads int) *HPGMG {
	return &HPGMG{
		FineBytes:         fineBytes,
		Levels:            4,
		VCycles:           3,
		HostThreads:       hostThreads,
		HostTouchFraction: 0.5,
		SmoothsPerLevel:   2,
		Blocks:            4,
		ChunkPages:        12,
		ComputePerChunk:   12 * sim.Microsecond,
	}
}

// Name implements Workload.
func (w *HPGMG) Name() string { return "hpgmg" }

// levelBytes returns level l's footprint: each coarser level is 1/8 the
// size (3-D refinement), floored at one VABlock.
func (w *HPGMG) levelBytes(l int) uint64 {
	b := w.FineBytes >> (3 * uint(l))
	if b < mem.VABlockSize {
		b = mem.VABlockSize
	}
	return b
}

// Allocs implements Workload: one grid per level, fine level host-
// initialized by HostThreads.
func (w *HPGMG) Allocs() []Alloc {
	allocs := make([]Alloc, w.Levels)
	for l := 0; l < w.Levels; l++ {
		allocs[l] = Alloc{
			Name:        "level",
			Bytes:       w.levelBytes(l),
			HostInit:    true,
			HostThreads: w.HostThreads,
		}
	}
	return allocs
}

// smoothKernel sweeps a level: blocks stream bands with read-modify-write.
func (w *HPGMG) smoothKernel(base mem.Addr, bytes uint64, blocks int) gpu.Kernel {
	totalPages := int(bytes / mem.PageSize)
	if blocks > totalPages {
		blocks = totalPages
	}
	per := (totalPages + blocks - 1) / blocks
	first := mem.PageOf(base)
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo := blk * per
		hi := lo + per
		if hi > totalPages {
			hi = totalPages
		}
		if lo >= hi {
			return nil
		}
		buf := newPageBuf(hi - lo)
		prog := newProgram(3 * chunks(hi-lo, w.ChunkPages))
		for p := lo; p < hi; p += w.ChunkPages {
			n := w.ChunkPages
			if p+n > hi {
				n = hi - p
			}
			// The read and the write-back share one read-only list.
			pages := buf.run(first+mem.PageID(p), n)
			prog = append(prog,
				gpu.Read(0, pages...),
				gpu.Compute(w.ComputePerChunk, deps0...),
				gpu.Write(nil, pages...),
			)
		}
		return []gpu.Program{prog}
	}}
}

// transferKernel reads src and writes dst (restriction or prolongation).
func (w *HPGMG) transferKernel(src, dst mem.Addr, srcBytes, dstBytes uint64, blocks int) gpu.Kernel {
	srcPages := int(srcBytes / mem.PageSize)
	dstPages := int(dstBytes / mem.PageSize)
	if blocks > dstPages {
		blocks = dstPages
	}
	perDst := (dstPages + blocks - 1) / blocks
	ratio := srcPages / dstPages
	if ratio < 1 {
		ratio = 1
	}
	s, d := mem.PageOf(src), mem.PageOf(dst)
	return gpu.Kernel{NumBlocks: blocks, BlockProgram: func(blk int) []gpu.Program {
		lo := blk * perDst
		hi := lo + perDst
		if hi > dstPages {
			hi = dstPages
		}
		if lo >= hi {
			return nil
		}
		// At most ratio source pages per destination page.
		buf := newPageBuf((hi - lo) * (ratio + 1))
		prog := newProgram(3 * chunks(hi-lo, w.ChunkPages))
		for p := lo; p < hi; p += w.ChunkPages {
			n := w.ChunkPages
			if p+n > hi {
				n = hi - p
			}
			srcLo := p * ratio
			srcN := n * ratio
			if srcLo+srcN > srcPages {
				srcN = srcPages - srcLo
			}
			if srcN > 0 {
				prog = append(prog,
					gpu.Read(0, buf.run(s+mem.PageID(srcLo), srcN)...),
					gpu.Compute(w.ComputePerChunk, deps0...),
				)
			}
			prog = append(prog, gpu.Write(deps0, buf.run(d+mem.PageID(p), n)...))
		}
		return []gpu.Program{prog}
	}}
}

// Phases implements Workload.
func (w *HPGMG) Phases(bases []mem.Addr) []Phase {
	var phases []Phase
	for cyc := 0; cyc < w.VCycles; cyc++ {
		if cyc > 0 {
			// Host phase between cycles: OpenMP threads touch part
			// of the fine grid (norm computation, boundary work).
			phases = append(phases, Phase{
				Name: "host-work",
				HostTouches: []HostTouch{{
					Base:    bases[0],
					Bytes:   uint64(float64(w.FineBytes) * w.HostTouchFraction),
					Threads: w.HostThreads,
				}},
			})
		}
		// Down-sweep: smooth and restrict.
		for l := 0; l < w.Levels-1; l++ {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases = append(phases, Phase{
					Name:   "smooth-down",
					Kernel: w.smoothKernel(bases[l], w.levelBytes(l), blocks),
				})
			}
			phases = append(phases, Phase{
				Name: "restrict",
				Kernel: w.transferKernel(bases[l], bases[l+1],
					w.levelBytes(l), w.levelBytes(l+1), blocks),
			})
		}
		// Coarse solve.
		phases = append(phases, Phase{
			Name:   "coarse-solve",
			Kernel: w.smoothKernel(bases[w.Levels-1], w.levelBytes(w.Levels-1), 4),
		})
		// Up-sweep: prolong and smooth.
		for l := w.Levels - 2; l >= 0; l-- {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			phases = append(phases, Phase{
				Name: "prolong",
				Kernel: w.transferKernel(bases[l+1], bases[l],
					w.levelBytes(l+1), w.levelBytes(l), blocks),
			})
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases = append(phases, Phase{
					Name:   "smooth-up",
					Kernel: w.smoothKernel(bases[l], w.levelBytes(l), blocks),
				})
			}
		}
	}
	return phases
}
