package workloads

// oracle_test.go keeps the original page-list builders — one fresh
// gpu.PageRange slice per op, panel pages merged with a sort-based
// dedupPages — as the reference the per-block page buffers are checked
// against. Each oracleX function is the original Phases body of X.

import (
	"fmt"
	"sort"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// pagesIn returns the distinct pages covering bytes [off, off+length) of
// the allocation at base.
func pagesIn(base mem.Addr, off, length uint64) []mem.PageID {
	if length == 0 {
		return nil
	}
	first := mem.PageOf(base + mem.Addr(off))
	last := mem.PageOf(base + mem.Addr(off+length-1))
	return gpu.PageRange(first, int(last-first)+1)
}

// dedupPages sorts and deduplicates a page list in place.
func dedupPages(pages []mem.PageID) []mem.PageID {
	if len(pages) < 2 {
		return pages
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	out := pages[:1]
	for _, p := range pages[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// oracleChunked appends ops reading (and optionally writing) pages in
// chunks of chunk pages.
func oracleChunked(prog gpu.Program, pages []mem.PageID, chunk int, write bool) gpu.Program {
	for lo := 0; lo < len(pages); lo += chunk {
		hi := lo + chunk
		if hi > len(pages) {
			hi = len(pages)
		}
		if write {
			prog = append(prog, gpu.Write(nil, pages[lo:hi]...))
		} else {
			prog = append(prog, gpu.Read(0, pages[lo:hi]...))
		}
	}
	return prog
}

// oraclePhases builds w's phases with the original builders.
func oraclePhases(w Workload, bases []mem.Addr) []Phase {
	switch w := w.(type) {
	case *VecAddPaper:
		return oracleVecAddPaper(w, bases)
	case *VecAddPrefetch:
		return oracleVecAddPrefetch(w, bases)
	case *VecAddCoalesced:
		return oracleVecAddCoalesced(w, bases)
	case *Regular:
		return oracleRegular(w, bases)
	case *Random:
		return oracleRandom(w, bases)
	case *Stream:
		return oracleStream(w, bases)
	case *GEMM:
		return oracleGEMM(w, bases)
	case *FFT:
		return oracleFFT(w, bases)
	case *SpMV:
		return oracleSpMV(w, bases)
	case *GaussSeidel:
		return oracleGaussSeidel(w, bases)
	case *HPGMG:
		return oracleHPGMG(w, bases)
	case *Replay:
		return oracleReplay(w, bases)
	}
	panic(fmt.Sprintf("oracle: no reference builder for %T", w))
}

func oracleVecAddPaper(w *VecAddPaper, bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	var prog gpu.Program
	for it := 0; it < w.Iterations; it++ {
		off := mem.PageID(it * w.Threads)
		prog = append(prog,
			gpu.Read(0, gpu.PageRange(a+off, w.Threads)...),
			gpu.Read(1, gpu.PageRange(b+off, w.Threads)...),
			gpu.Write([]int{0, 1}, gpu.PageRange(c+off, w.Threads)...),
		)
	}
	return []Phase{{
		Name: "vecadd",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{prog}
		}},
	}}
}

func oracleVecAddPrefetch(w *VecAddPrefetch, bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	prog := gpu.Program{
		gpu.Prefetch(gpu.PageRange(a, w.PagesPerVector)...),
		gpu.Prefetch(gpu.PageRange(b, w.PagesPerVector)...),
		gpu.Prefetch(gpu.PageRange(c, w.PagesPerVector)...),
		gpu.Compute(10 * sim.Microsecond),
	}
	return []Phase{{
		Name: "prefetch-vecadd",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			return []gpu.Program{prog}
		}},
	}}
}

func oracleVecAddCoalesced(w *VecAddCoalesced, bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	per := w.PagesPerVector / w.Warps
	return []Phase{{
		Name: "vecadd-coalesced",
		Kernel: gpu.Kernel{NumBlocks: 1, BlockProgram: func(int) []gpu.Program {
			progs := make([]gpu.Program, w.Warps)
			for wi := 0; wi < w.Warps; wi++ {
				off := mem.PageID(wi * per)
				progs[wi] = gpu.Program{
					gpu.Read(0, gpu.PageRange(a+off, per)...),
					gpu.Read(1, gpu.PageRange(b+off, per)...),
					gpu.Write([]int{0, 1}, gpu.PageRange(c+off, per)...),
				}
			}
			return progs
		}},
	}}
}

func oracleRegular(w *Regular, bases []mem.Addr) []Phase {
	first := mem.PageOf(bases[0])
	total := int(w.Bytes / mem.PageSize)
	per := (total + w.Partitions - 1) / w.Partitions
	chunk := w.ChunkPages
	return []Phase{{
		Name: "stream-read",
		Kernel: gpu.Kernel{NumBlocks: w.Partitions, BlockProgram: func(b int) []gpu.Program {
			lo := b * per
			hi := lo + per
			if hi > total {
				hi = total
			}
			if lo >= hi {
				return nil
			}
			prog := oracleChunked(nil, gpu.PageRange(first+mem.PageID(lo), hi-lo), chunk, false)
			return []gpu.Program{prog}
		}},
	}}
}

func oracleRandom(w *Random, bases []mem.Addr) []Phase {
	first := mem.PageOf(bases[0])
	totalPages := uint64(w.Bytes / mem.PageSize)
	seed := w.Seed
	return []Phase{{
		Name: "random-read",
		Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(b int) []gpu.Program {
			rng := sim.NewRNG(seed + uint64(b)*0x9e37)
			var prog gpu.Program
			for i := 0; i < w.AccessesPerBlk; i++ {
				p := first + mem.PageID(rng.Uint64n(totalPages))
				prog = append(prog, gpu.Read(0, p))
			}
			return []gpu.Program{prog}
		}},
	}}
}

func oracleStream(w *Stream, bases []mem.Addr) []Phase {
	a, b, c := mem.PageOf(bases[0]), mem.PageOf(bases[1]), mem.PageOf(bases[2])
	total := int(w.BytesPerArray / mem.PageSize)
	chunk := w.ChunkPages
	stride := w.Blocks * chunk
	var phases []Phase
	for it := 0; it < w.Iterations; it++ {
		phases = append(phases, Phase{
			Name: "triad",
			Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
				var prog, shadow gpu.Program
				for p := blk * chunk; p < total; p += stride {
					n := chunk
					if p+n > total {
						n = total - p
					}
					off := mem.PageID(p)
					prog = append(prog,
						gpu.Read(0, gpu.PageRange(b+off, n)...),
						gpu.Read(1, gpu.PageRange(c+off, n)...),
						gpu.Compute(w.ComputePerChunk, 0, 1),
						gpu.Write(nil, gpu.PageRange(a+off, n)...),
					)
					shadow = append(shadow,
						gpu.Read(0, b+off),
						gpu.Read(1, c+off),
						gpu.Compute(w.ComputePerChunk, 0, 1),
					)
				}
				progs := []gpu.Program{prog}
				for s := 0; s < w.ShadowWarps; s++ {
					progs = append(progs, shadow)
				}
				return progs
			}},
		})
	}
	return phases
}

// oraclePanelPages is the original GEMM.panelPages: every row's pages,
// then a sort-based dedup.
func oraclePanelPages(w *GEMM, base mem.Addr, r0, nr, c0, nc int) []mem.PageID {
	rowBytes := uint64(w.N) * uint64(w.Elem)
	var pages []mem.PageID
	for r := r0; r < r0+nr; r++ {
		off := uint64(r)*rowBytes + uint64(c0)*uint64(w.Elem)
		pages = append(pages, pagesIn(base, off, uint64(nc)*uint64(w.Elem))...)
	}
	return dedupPages(pages)
}

func oracleGEMM(w *GEMM, bases []mem.Addr) []Phase {
	if w.N%w.Tile != 0 {
		panic(fmt.Sprintf("workloads: GEMM N=%d not divisible by tile %d", w.N, w.Tile))
	}
	a, b, c := bases[0], bases[1], bases[2]
	tiles := w.N / w.Tile
	nblocks := tiles * tiles
	return []Phase{{
		Name: w.Name(),
		Kernel: gpu.Kernel{NumBlocks: nblocks, BlockProgram: func(blk int) []gpu.Program {
			ti := blk / tiles
			tj := blk % tiles
			var prog gpu.Program
			for k := 0; k < tiles; k++ {
				aPages := oraclePanelPages(w, a, ti*w.Tile, w.Tile, k*w.Tile, w.Tile)
				bPages := oraclePanelPages(w, b, k*w.Tile, w.Tile, tj*w.Tile, w.Tile)
				n := len(aPages)
				if len(bPages) > n {
					n = len(bPages)
				}
				for lo := 0; lo < n; lo += w.ChunkPages {
					hi := lo + w.ChunkPages
					op := gpu.Compute(w.ComputePerChunk)
					if lo < len(aPages) {
						ha := hi
						if ha > len(aPages) {
							ha = len(aPages)
						}
						prog = append(prog, gpu.Read(0, aPages[lo:ha]...))
						op.Deps = append(op.Deps, 0)
					}
					if lo < len(bPages) {
						hb := hi
						if hb > len(bPages) {
							hb = len(bPages)
						}
						prog = append(prog, gpu.Read(1, bPages[lo:hb]...))
						op.Deps = append(op.Deps, 1)
					}
					prog = append(prog, op)
				}
			}
			cPages := oraclePanelPages(w, c, ti*w.Tile, w.Tile, tj*w.Tile, w.Tile)
			prog = append(prog, gpu.Write(nil, cPages...))
			return []gpu.Program{prog}
		}},
	}}
}

func oracleFFT(w *FFT, bases []mem.Addr) []Phase {
	totalPages := int(w.arrayBytes() / mem.PageSize)
	passes := 0
	for n := totalPages; n > 1; n /= 2 {
		passes++
	}
	if passes > 8 {
		passes = 8
	}
	var phases []Phase
	for p := 0; p < passes; p++ {
		src := mem.PageOf(bases[p%2])
		dst := mem.PageOf(bases[(p+1)%2])
		stride := totalPages >> (p + 1)
		if stride < w.ChunkPages {
			stride = w.ChunkPages
		}
		per := (totalPages/2 + w.Blocks - 1) / w.Blocks
		chunk := w.ChunkPages
		phases = append(phases, Phase{
			Name: "fft-pass",
			Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
				lo := blk * per
				hi := lo + per
				if hi > totalPages/2 {
					hi = totalPages / 2
				}
				if lo >= hi {
					return nil
				}
				var prog gpu.Program
				for i := lo; i < hi; i += chunk {
					n := chunk
					if i+n > hi {
						n = hi - i
					}
					loIdx := mem.PageID(i % stride)
					base := mem.PageID(i/stride) * mem.PageID(stride) * 2
					prog = append(prog,
						gpu.Read(0, gpu.PageRange(src+base+loIdx, n)...),
						gpu.Read(1, gpu.PageRange(src+base+loIdx+mem.PageID(stride), n)...),
						gpu.Compute(w.ComputePerChunk, 0, 1),
						gpu.Write(nil, gpu.PageRange(dst+mem.PageID(2*i), n)...),
						gpu.Write(nil, gpu.PageRange(dst+mem.PageID(2*i)+mem.PageID(n), n)...),
					)
				}
				return []gpu.Program{prog}
			}},
		})
	}
	return phases
}

func oracleSpMV(w *SpMV, bases []mem.Addr) []Phase {
	vals, cols, x, y := bases[0], bases[1], bases[2], bases[3]
	xPages := mem.AlignUp(uint64(w.Rows)*spmvVecBytes, mem.PageSize) / mem.PageSize
	rowsPerBlock := (w.Rows + w.Blocks - 1) / w.Blocks
	return []Phase{{
		Name: "spmv",
		Kernel: gpu.Kernel{NumBlocks: w.Blocks, BlockProgram: func(blk int) []gpu.Program {
			rng := sim.NewRNG(w.Seed + uint64(blk)*0x51ed)
			r0 := blk * rowsPerBlock
			r1 := r0 + rowsPerBlock
			if r1 > w.Rows {
				r1 = w.Rows
			}
			var prog gpu.Program
			for r := r0; r < r1; r += w.ChunkRows {
				rows := w.ChunkRows
				if r+rows > r1 {
					rows = r1 - r
				}
				nnzOff := uint64(r) * uint64(w.NnzPerRow) * spmvValBytes
				nnzLen := uint64(rows) * uint64(w.NnzPerRow) * spmvValBytes
				valPages := pagesIn(vals, nnzOff, nnzLen)
				colPages := pagesIn(cols, nnzOff, nnzLen)
				gathers := rows * w.NnzPerRow / 16
				if gathers < 1 {
					gathers = 1
				}
				if gathers > 8 {
					gathers = 8
				}
				var xps []mem.PageID
				for g := 0; g < gathers; g++ {
					xps = append(xps, w.gatherPage(rng, mem.PageOf(x), xPages))
				}
				xps = dedupPages(xps)
				prog = append(prog,
					gpu.Read(0, valPages...),
					gpu.Read(1, colPages...),
					gpu.Read(2, xps...),
					gpu.Compute(w.ComputePerChunk, 0, 1, 2),
					gpu.Write(nil, pagesIn(y, uint64(r)*spmvVecBytes, uint64(rows)*spmvVecBytes)...),
				)
			}
			return []gpu.Program{prog}
		}},
	}}
}

func oracleGaussSeidel(w *GaussSeidel, bases []mem.Addr) []Phase {
	base := bases[0]
	rowBytes := uint64(w.Cols) * 4
	bands := (w.Rows + w.BandRows - 1) / w.BandRows
	perStripe := (bands + w.Stripes - 1) / w.Stripes
	var phases []Phase
	for it := 0; it < w.Iterations; it++ {
		phases = append(phases, Phase{
			Name: "sweep",
			Kernel: gpu.Kernel{NumBlocks: w.Stripes, BlockProgram: func(blk int) []gpu.Program {
				var prog gpu.Program
				for bi := blk * perStripe; bi < (blk+1)*perStripe && bi < bands; bi++ {
					r0 := bi * w.BandRows
					r1 := r0 + w.BandRows
					if r1 > w.Rows {
						r1 = w.Rows
					}
					h0, h1 := r0-1, r1+1
					if h0 < 0 {
						h0 = 0
					}
					if h1 > w.Rows {
						h1 = w.Rows
					}
					readPages := dedupPages(pagesIn(base, uint64(h0)*rowBytes, uint64(h1-h0)*rowBytes))
					writePages := dedupPages(pagesIn(base, uint64(r0)*rowBytes, uint64(r1-r0)*rowBytes))
					for lo := 0; lo < len(readPages); lo += w.ChunkPages {
						hi := lo + w.ChunkPages
						if hi > len(readPages) {
							hi = len(readPages)
						}
						prog = append(prog,
							gpu.Read(0, readPages[lo:hi]...),
							gpu.Compute(w.ComputePerChunk, 0),
						)
					}
					for lo := 0; lo < len(writePages); lo += w.ChunkPages {
						hi := lo + w.ChunkPages
						if hi > len(writePages) {
							hi = len(writePages)
						}
						prog = append(prog, gpu.Write([]int{0}, writePages[lo:hi]...))
					}
				}
				return []gpu.Program{prog}
			}},
		})
	}
	return phases
}

func oracleSmoothKernel(w *HPGMG, base mem.Addr, bytes uint64, blocks int) gpu.Kernel {
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
		var prog gpu.Program
		for p := lo; p < hi; p += w.ChunkPages {
			n := w.ChunkPages
			if p+n > hi {
				n = hi - p
			}
			pages := gpu.PageRange(first+mem.PageID(p), n)
			prog = append(prog,
				gpu.Read(0, pages...),
				gpu.Compute(w.ComputePerChunk, 0),
				gpu.Write(nil, pages...),
			)
		}
		return []gpu.Program{prog}
	}}
}

func oracleTransferKernel(w *HPGMG, src, dst mem.Addr, srcBytes, dstBytes uint64, blocks int) gpu.Kernel {
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
		var prog gpu.Program
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
					gpu.Read(0, gpu.PageRange(s+mem.PageID(srcLo), srcN)...),
					gpu.Compute(w.ComputePerChunk, 0),
				)
			}
			prog = append(prog, gpu.Write([]int{0}, gpu.PageRange(d+mem.PageID(p), n)...))
		}
		return []gpu.Program{prog}
	}}
}

// oracleHPGMG rebuilds w's phase list with the oracle kernels. The phase
// sequence (host touches, level order) is not under test, so it reuses
// w.Phases and swaps each kernel for its oracle twin by phase name.
func oracleHPGMG(w *HPGMG, bases []mem.Addr) []Phase {
	phases := w.Phases(bases)
	for cyc, i := 0, 0; cyc < w.VCycles; cyc++ {
		if cyc > 0 {
			i++ // host-work
		}
		for l := 0; l < w.Levels-1; l++ {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases[i].Kernel = oracleSmoothKernel(w, bases[l], w.levelBytes(l), blocks)
				i++
			}
			phases[i].Kernel = oracleTransferKernel(w, bases[l], bases[l+1], w.levelBytes(l), w.levelBytes(l+1), blocks)
			i++
		}
		phases[i].Kernel = oracleSmoothKernel(w, bases[w.Levels-1], w.levelBytes(w.Levels-1), 4)
		i++
		for l := w.Levels - 2; l >= 0; l-- {
			blocks := w.Blocks >> uint(l)
			if blocks < 4 {
				blocks = 4
			}
			phases[i].Kernel = oracleTransferKernel(w, bases[l+1], bases[l], w.levelBytes(l+1), w.levelBytes(l), blocks)
			i++
			for s := 0; s < w.SmoothsPerLevel; s++ {
				phases[i].Kernel = oracleSmoothKernel(w, bases[l], w.levelBytes(l), blocks)
				i++
			}
		}
	}
	return phases
}

func oracleReplay(w *Replay, bases []mem.Addr) []Phase {
	perBlock := map[int][]TraceOp{}
	maxBlock := 0
	for _, op := range w.Ops {
		perBlock[op.Block] = append(perBlock[op.Block], op)
		if op.Block > maxBlock {
			maxBlock = op.Block
		}
	}
	return []Phase{{
		Name: "replay",
		Kernel: gpu.Kernel{NumBlocks: maxBlock + 1, BlockProgram: func(blk int) []gpu.Program {
			var prog gpu.Program
			for _, op := range perBlock[blk] {
				switch op.Kind {
				case "c":
					prog = append(prog, gpu.Compute(sim.Time(op.Count), 0))
					continue
				}
				base := mem.PageOf(bases[op.Alloc]) + mem.PageID(op.Page)
				pages := gpu.PageRange(base, int(op.Count))
				switch op.Kind {
				case "r":
					prog = append(prog, gpu.Read(0, pages...))
				case "w":
					prog = append(prog, gpu.Write(nil, pages...))
				case "p":
					prog = append(prog, gpu.Prefetch(pages...))
				}
			}
			if len(prog) == 0 {
				return nil
			}
			return []gpu.Program{prog}
		}},
	}}
}
