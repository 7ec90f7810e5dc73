package workloads

import (
	"fmt"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// GEMM models cuBLAS [sd]gemm access geometry: C = A×B over N×N matrices
// in row-major layout, tiled so each thread block owns one C tile and
// sweeps the K dimension in panels. Row panels of A are contiguous pages;
// column panels of B stride across rows; blocks in the same tile row share
// A panels (cross-SM duplicate faults), blocks in the same tile column
// share B panels. The "phases" the paper observes in sgemm batch profiles
// (Figure 8) come from this tile-panel structure.
type GEMM struct {
	// N is the matrix dimension in elements.
	N int
	// Elem is the element size: 4 for sgemm, 8 for dgemm.
	Elem int
	// Tile is the square tile edge in elements.
	Tile int
	// ChunkPages is the coalesced page window a block loads at once
	// while staging a panel into shared memory.
	ChunkPages int
	// ComputePerChunk is the dependent staging/FMA time per chunk,
	// modeling the bounded per-warp ILP window.
	ComputePerChunk sim.Time
}

// NewSGEMM returns a single-precision GEMM of dimension n.
func NewSGEMM(n int) *GEMM {
	return &GEMM{N: n, Elem: 4, Tile: 256, ChunkPages: 8, ComputePerChunk: 40 * sim.Microsecond}
}

// NewDGEMM returns a double-precision GEMM of dimension n (Figure 15).
func NewDGEMM(n int) *GEMM {
	return &GEMM{N: n, Elem: 8, Tile: 256, ChunkPages: 8, ComputePerChunk: 80 * sim.Microsecond}
}

// Name implements Workload.
func (w *GEMM) Name() string {
	if w.Elem == 8 {
		return "dgemm"
	}
	return "sgemm"
}

// MatrixBytes returns the size of one matrix.
func (w *GEMM) MatrixBytes() uint64 { return uint64(w.N) * uint64(w.N) * uint64(w.Elem) }

// Allocs implements Workload.
func (w *GEMM) Allocs() []Alloc {
	b := w.MatrixBytes()
	return []Alloc{
		{Name: "A", Bytes: b, HostInit: true, HostThreads: 1},
		{Name: "B", Bytes: b, HostInit: true, HostThreads: 1},
		{Name: "C", Bytes: b},
	}
}

// rowSpan returns the page run of row r's columns [c0, c0+nc) of the
// row-major matrix at base.
func (w *GEMM) rowSpan(base mem.Addr, r, c0, nc int) (mem.PageID, int) {
	rowBytes := uint64(w.N) * uint64(w.Elem)
	off := uint64(r)*rowBytes + uint64(c0)*uint64(w.Elem)
	return byteSpan(base, off, uint64(nc)*uint64(w.Elem))
}

// panelLen returns the length of the list panel carves, without carving.
func (w *GEMM) panelLen(base mem.Addr, r0, nr, c0, nc int) int {
	total := 0
	var last mem.PageID
	for r := r0; r < r0+nr; r++ {
		first, n := w.rowSpan(base, r, c0, nc)
		end := first + mem.PageID(n) - 1
		if total > 0 && first == last {
			n--
		}
		total += n
		last = end
	}
	return total
}

// panel carves the distinct pages of the sub-matrix rows [r0, r0+nr) x
// cols [c0, c0+nc) of the row-major matrix at base, ascending. Each row
// starts past the previous row's end, so rows ascend and only a row's
// first page can repeat the page before it: skipping that repeat yields
// the sorted distinct set.
func (w *GEMM) panel(buf *pageBuf, base mem.Addr, r0, nr, c0, nc int) []mem.PageID {
	lo := buf.mark()
	for r := r0; r < r0+nr; r++ {
		first, n := w.rowSpan(base, r, c0, nc)
		if len(*buf) > lo && (*buf)[len(*buf)-1] == first {
			first, n = first+1, n-1
		}
		buf.run(first, n)
	}
	return buf.since(lo)
}

// Phases implements Workload.
func (w *GEMM) Phases(bases []mem.Addr) []Phase {
	if w.N%w.Tile != 0 {
		panic(fmt.Sprintf("workloads: GEMM N=%d not divisible by tile %d", w.N, w.Tile))
	}
	a, b, c := bases[0], bases[1], bases[2]
	tiles := w.N / w.Tile
	nblocks := tiles * tiles
	t := w.Tile
	return []Phase{{
		Name: w.Name(),
		Kernel: gpu.Kernel{NumBlocks: nblocks, BlockProgram: func(blk int) []gpu.Program {
			ti := blk / tiles // tile row
			tj := blk % tiles // tile col
			pages, ops := w.panelLen(c, ti*t, t, tj*t, t), 1
			for k := 0; k < tiles; k++ {
				na := w.panelLen(a, ti*t, t, k*t, t)
				nb := w.panelLen(b, k*t, t, tj*t, t)
				pages += na + nb
				ops += chunks(na, w.ChunkPages) + chunks(nb, w.ChunkPages) + chunks(max(na, nb), w.ChunkPages)
			}
			buf := newPageBuf(pages)
			prog := newProgram(ops)
			for k := 0; k < tiles; k++ {
				aPages := w.panel(&buf, a, ti*t, t, k*t, t)
				bPages := w.panel(&buf, b, k*t, t, tj*t, t)
				// Stage the panels chunk by chunk: each chunk's loads
				// must land before the dependent math lets the next
				// chunk issue (shared-memory double-buffer pacing).
				n := max(len(aPages), len(bPages))
				for lo := 0; lo < n; lo += w.ChunkPages {
					hi := lo + w.ChunkPages
					var deps []int
					if lo < len(aPages) {
						ha := min(hi, len(aPages))
						prog = append(prog, gpu.Read(0, aPages[lo:ha:ha]...))
						deps = deps0
					}
					if lo < len(bPages) {
						hb := min(hi, len(bPages))
						prog = append(prog, gpu.Read(1, bPages[lo:hb:hb]...))
						if deps == nil {
							deps = deps1
						} else {
							deps = deps01
						}
					}
					prog = append(prog, gpu.Compute(w.ComputePerChunk, deps...))
				}
			}
			cPages := w.panel(&buf, c, ti*t, t, tj*t, t)
			prog = append(prog, gpu.Write(nil, cPages...))
			return []gpu.Program{prog}
		}},
	}}
}
