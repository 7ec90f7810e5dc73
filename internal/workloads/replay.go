package workloads

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// TraceOp is one operation of a recorded access trace.
type TraceOp struct {
	// Block is the thread block executing the op.
	Block int
	// Kind is "r" (read), "w" (write), "p" (prefetch) or "c" (compute).
	Kind string
	// Alloc indexes the trace's allocation list; Page is the page offset
	// within it. Ignored for computes.
	Alloc int
	Page  uint64
	// Count is the page run length (memory ops) or the duration in
	// nanoseconds (computes).
	Count uint64
}

// Replay executes a recorded page-access trace as a workload: the
// bring-your-own-trace path for studying applications the built-in models
// don't cover. Each block's ops run in order with dependent pacing
// (reads feed the next compute).
type Replay struct {
	// TraceName labels the workload.
	TraceName string
	// AllocBytes sizes each allocation referenced by the trace.
	AllocBytes []uint64
	// HostInit marks allocations initialized by the CPU.
	HostInit []bool
	// Ops is the trace in program order (per block).
	Ops []TraceOp
}

// Name implements Workload.
func (w *Replay) Name() string {
	if w.TraceName == "" {
		return "replay"
	}
	return "replay-" + w.TraceName
}

// Allocs implements Workload.
func (w *Replay) Allocs() []Alloc {
	allocs := make([]Alloc, len(w.AllocBytes))
	for i, b := range w.AllocBytes {
		allocs[i] = Alloc{Name: fmt.Sprintf("alloc%d", i), Bytes: b}
		if i < len(w.HostInit) && w.HostInit[i] {
			allocs[i].HostInit = true
			allocs[i].HostThreads = 1
		}
	}
	return allocs
}

// Phases implements Workload.
func (w *Replay) Phases(bases []mem.Addr) []Phase {
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
			ops := perBlock[blk]
			pages := 0
			for _, op := range ops {
				if op.Kind != "c" {
					pages += int(op.Count)
				}
			}
			buf := newPageBuf(pages)
			prog := newProgram(len(ops))
			for _, op := range ops {
				switch op.Kind {
				case "c":
					prog = append(prog, gpu.Compute(sim.Time(op.Count), deps0...))
					continue
				}
				base := mem.PageOf(bases[op.Alloc]) + mem.PageID(op.Page)
				pages := buf.run(base, int(op.Count))
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

// ParseTrace reads the plain-text trace format:
//
//	# comment
//	alloc <bytes> [hostinit]
//	<block> r|w|p <allocIdx> <pageOff> <count>
//	<block> c <duration_ns>
//
// Lines are whitespace-separated; allocations must precede ops.
func ParseTrace(r io.Reader) (*Replay, error) {
	w := &Replay{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "alloc" {
			if len(fields) < 2 {
				return nil, fmt.Errorf("trace line %d: alloc needs a size", lineNo)
			}
			bytes, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil || bytes == 0 {
				return nil, fmt.Errorf("trace line %d: bad alloc size %q", lineNo, fields[1])
			}
			w.AllocBytes = append(w.AllocBytes, bytes)
			w.HostInit = append(w.HostInit, len(fields) > 2 && fields[2] == "hostinit")
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace line %d: too few fields", lineNo)
		}
		block, err := strconv.Atoi(fields[0])
		if err != nil || block < 0 {
			return nil, fmt.Errorf("trace line %d: bad block %q", lineNo, fields[0])
		}
		kind := fields[1]
		switch kind {
		case "c":
			dur, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad duration %q", lineNo, fields[2])
			}
			w.Ops = append(w.Ops, TraceOp{Block: block, Kind: "c", Count: dur})
		case "r", "w", "p":
			if len(fields) < 5 {
				return nil, fmt.Errorf("trace line %d: memory op needs alloc, page, count", lineNo)
			}
			alloc, err := strconv.Atoi(fields[2])
			if err != nil || alloc < 0 || alloc >= len(w.AllocBytes) {
				return nil, fmt.Errorf("trace line %d: bad alloc index %q", lineNo, fields[2])
			}
			page, err := strconv.ParseUint(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad page %q", lineNo, fields[3])
			}
			count, err := strconv.ParseUint(fields[4], 10, 64)
			if err != nil || count == 0 {
				return nil, fmt.Errorf("trace line %d: bad count %q", lineNo, fields[4])
			}
			maxPages := mem.AlignUp(w.AllocBytes[alloc], mem.PageSize) / mem.PageSize
			if page+count > maxPages {
				return nil, fmt.Errorf("trace line %d: pages [%d,%d) exceed alloc %d (%d pages)",
					lineNo, page, page+count, alloc, maxPages)
			}
			w.Ops = append(w.Ops, TraceOp{Block: block, Kind: kind, Alloc: alloc, Page: page, Count: count})
		default:
			return nil, fmt.Errorf("trace line %d: unknown op kind %q", lineNo, kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(w.AllocBytes) == 0 {
		return nil, fmt.Errorf("trace: no allocations declared")
	}
	return w, nil
}

// WriteTrace emits the trace in the ParseTrace format (round-trippable).
func (w *Replay) WriteTrace(out io.Writer) error {
	for i, b := range w.AllocBytes {
		suffix := ""
		if i < len(w.HostInit) && w.HostInit[i] {
			suffix = " hostinit"
		}
		if _, err := fmt.Fprintf(out, "alloc %d%s\n", b, suffix); err != nil {
			return err
		}
	}
	for _, op := range w.Ops {
		var err error
		if op.Kind == "c" {
			_, err = fmt.Fprintf(out, "%d c %d\n", op.Block, op.Count)
		} else {
			_, err = fmt.Fprintf(out, "%d %s %d %d %d\n", op.Block, op.Kind, op.Alloc, op.Page, op.Count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
