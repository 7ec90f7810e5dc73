// Package workloads models the memory-access geometry of the paper's
// benchmarks (Table 1) plus its synthetic kernels: page-granular GPU
// access patterns that drive the UVM driver the way the real applications
// do. The paper's fault-level results depend on access geometry — spatial
// locality, VABlock spread, reuse, host-side initialization — not on
// computed values, so each workload reproduces geometry only.
package workloads

import (
	"slices"

	"guvm/internal/gpu"
	"guvm/internal/mem"
)

// Alloc describes one managed allocation a workload needs.
type Alloc struct {
	Name  string
	Bytes uint64
	// HostInit: the CPU initializes the data before the first kernel
	// (live CPU mappings -> unmap on first GPU touch).
	HostInit bool
	// HostThreads is the number of CPU threads performing that
	// initialization (Figure 11 contrasts 1 vs many).
	HostThreads int
}

// HostTouch is a CPU-side phase re-touching a range (e.g. host work
// between GPU kernels), restoring live CPU mappings on non-resident pages.
type HostTouch struct {
	Base    mem.Addr
	Bytes   uint64
	Threads int
}

// Phase is one step of a workload: optional host touches followed by an
// optional kernel (Kernel.NumBlocks == 0 means a host-only phase).
type Phase struct {
	Name        string
	HostTouches []HostTouch
	Kernel      gpu.Kernel
}

// Workload is a benchmark: allocations plus a phase list.
type Workload interface {
	Name() string
	Allocs() []Alloc
	// Phases binds the workload to its allocation base addresses, in
	// the order returned by Allocs.
	Phases(bases []mem.Addr) []Phase
}

// pageBuf carves the page lists of one block's warp programs out of a
// single backing array, so building a block costs one page allocation
// instead of one per op. Every carved list is a 3-index slice capped at
// its own length: appending to one op's Pages reallocates instead of
// overwriting the next op's pages. The buffer only grows at its end and
// a carved list is never written again, so a presize that falls short
// costs a reallocation, never a corrupted list. The device only reads
// an Op's Pages and Deps; the lists live as long as the programs.
type pageBuf []mem.PageID

func newPageBuf(n int) pageBuf { return make(pageBuf, 0, n) }

// mark returns the position the next carved list starts at.
func (b pageBuf) mark() int { return len(b) }

// since returns the pages appended after mark lo, capped.
func (b pageBuf) since(lo int) []mem.PageID { return b[lo:len(b):len(b)] }

// run carves the pages [first, first+n).
func (b *pageBuf) run(first mem.PageID, n int) []mem.PageID {
	lo := b.mark()
	for i := 0; i < n; i++ {
		*b = append(*b, first+mem.PageID(i))
	}
	return b.since(lo)
}

// one carves the single page p.
func (b *pageBuf) one(p mem.PageID) []mem.PageID {
	lo := b.mark()
	*b = append(*b, p)
	return b.since(lo)
}

// byteSpan returns the first page and the page count covering bytes
// [off, off+length) of the allocation at base; length must be positive.
func byteSpan(base mem.Addr, off, length uint64) (mem.PageID, int) {
	first := mem.PageOf(base + mem.Addr(off))
	last := mem.PageOf(base + mem.Addr(off+length-1))
	return first, int(last-first) + 1
}

// span carves the distinct pages covering bytes [off, off+length) of the
// allocation at base (nil for an empty range).
func (b *pageBuf) span(base mem.Addr, off, length uint64) []mem.PageID {
	if length == 0 {
		return nil
	}
	return b.run(byteSpan(base, off, length))
}

// Shared read-only scoreboard dependency lists: ops alias them instead of
// allocating a fresh list per op.
var (
	deps0   = []int{0}
	deps1   = []int{1}
	deps01  = []int{0, 1}
	deps012 = []int{0, 1, 2}
)

// sortedSet sorts and deduplicates, in place, the pages appended after
// mark lo, and returns them carved.
func (b *pageBuf) sortedSet(lo int) []mem.PageID {
	set := (*b)[lo:]
	slices.Sort(set)
	set = slices.Compact(set)
	*b = (*b)[:lo+len(set)]
	return b.since(lo)
}

// newProgram returns an empty program with room for n ops (nil for none,
// as an append-built program would be).
func newProgram(n int) gpu.Program {
	if n == 0 {
		return nil
	}
	return make(gpu.Program, 0, n)
}

// chunked appends ops reading pages in chunks of chunk pages, each chunk
// capped like a carved list.
func chunked(prog gpu.Program, pages []mem.PageID, chunk int) gpu.Program {
	for lo := 0; lo < len(pages); lo += chunk {
		hi := min(lo+chunk, len(pages))
		prog = append(prog, gpu.Read(0, pages[lo:hi:hi]...))
	}
	return prog
}

// chunks returns how many chunk-page pieces n pages split into.
func chunks(n, chunk int) int { return (n + chunk - 1) / chunk }
