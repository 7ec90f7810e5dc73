package workloads

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// SpMV models sparse matrix-vector multiply in CSR format, the canonical
// irregular HPC kernel: streaming reads of the row pointers and value/
// column arrays, but data-dependent gathers into the dense vector x. The
// gather destroys spatial locality in x — exactly the access pattern for
// which the paper's related work shows UVM prefetching misbehaves.
type SpMV struct {
	// Rows is the matrix dimension.
	Rows int
	// NnzPerRow is the average nonzeros per row.
	NnzPerRow int
	// Blocks is the thread-block count.
	Blocks int
	// ChunkRows is the rows processed per dependent step.
	ChunkRows int
	// ComputePerChunk paces the multiply-accumulate per chunk.
	ComputePerChunk sim.Time
	// Seed drives the column (gather) distribution.
	Seed uint64
	// Skew in [0,1): 0 = uniform gathers; near 1 concentrates gathers
	// on low columns (power-law-ish locality).
	Skew float64
}

// NewSpMV returns an SpMV over an n x n matrix with ~nnzPerRow nonzeros
// per row.
func NewSpMV(n, nnzPerRow int, seed uint64) *SpMV {
	return &SpMV{
		Rows: n, NnzPerRow: nnzPerRow, Blocks: 16, ChunkRows: 64,
		ComputePerChunk: 20 * sim.Microsecond, Seed: seed, Skew: 0.5,
	}
}

// Name implements Workload.
func (w *SpMV) Name() string { return "spmv" }

const (
	spmvValBytes = 4 // float32 values
	spmvColBytes = 4 // int32 column indices
	spmvVecBytes = 4 // float32 x and y
)

func (w *SpMV) nnz() int { return w.Rows * w.NnzPerRow }

// Allocs implements Workload: values, column indices, x, y.
func (w *SpMV) Allocs() []Alloc {
	return []Alloc{
		{Name: "vals", Bytes: uint64(w.nnz()) * spmvValBytes, HostInit: true, HostThreads: 1},
		{Name: "cols", Bytes: uint64(w.nnz()) * spmvColBytes, HostInit: true, HostThreads: 1},
		{Name: "x", Bytes: uint64(w.Rows) * spmvVecBytes, HostInit: true, HostThreads: 1},
		{Name: "y", Bytes: uint64(w.Rows) * spmvVecBytes},
	}
}

// gatherPage picks the x-page one nonzero gathers from.
func (w *SpMV) gatherPage(rng *sim.RNG, xFirst mem.PageID, xPages uint64) mem.PageID {
	if rng.Float64() < w.Skew {
		// Local/hub access: one of the first few pages.
		hub := xPages / 16
		if hub == 0 {
			hub = 1
		}
		return xFirst + mem.PageID(rng.Uint64n(hub))
	}
	return xFirst + mem.PageID(rng.Uint64n(xPages))
}

// Phases implements Workload.
func (w *SpMV) Phases(bases []mem.Addr) []Phase {
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
			steps := 0
			if r0 < r1 {
				steps = chunks(r1-r0, w.ChunkRows)
			}
			// Per step: value and column pages (each at most one more
			// than the chunk's bytes fill), up to 8 gathers, y pages.
			chunkNnzBytes := uint64(w.ChunkRows) * uint64(w.NnzPerRow) * spmvValBytes
			perStep := 2*(int(chunkNnzBytes/mem.PageSize)+2) + 8 +
				int(uint64(w.ChunkRows)*spmvVecBytes/mem.PageSize) + 2
			buf := newPageBuf(steps * perStep)
			prog := newProgram(5 * steps)
			for r := r0; r < r1; r += w.ChunkRows {
				rows := w.ChunkRows
				if r+rows > r1 {
					rows = r1 - r
				}
				nnzOff := uint64(r) * uint64(w.NnzPerRow) * spmvValBytes
				nnzLen := uint64(rows) * uint64(w.NnzPerRow) * spmvValBytes
				// Streaming reads: values and column indices.
				valPages := buf.span(vals, nnzOff, nnzLen)
				colPages := buf.span(cols, nnzOff, nnzLen)
				// Data-dependent gathers into x: a handful of
				// distinct pages per chunk.
				gathers := rows * w.NnzPerRow / 16
				if gathers < 1 {
					gathers = 1
				}
				if gathers > 8 {
					gathers = 8
				}
				lo := buf.mark()
				for g := 0; g < gathers; g++ {
					buf = append(buf, w.gatherPage(rng, mem.PageOf(x), xPages))
				}
				xps := buf.sortedSet(lo)
				prog = append(prog,
					gpu.Read(0, valPages...),
					gpu.Read(1, colPages...),
					gpu.Read(2, xps...),
					gpu.Compute(w.ComputePerChunk, deps012...),
					gpu.Write(nil, buf.span(y, uint64(r)*spmvVecBytes, uint64(rows)*spmvVecBytes)...),
				)
			}
			return []gpu.Program{prog}
		}},
	}}
}
