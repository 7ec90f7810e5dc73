package hostos

import (
	"encoding/binary"
	"testing"
)

// FuzzRadixTree drives the radix tree through an arbitrary op sequence and
// cross-checks it against a map oracle, asserting the structural
// invariants (size, node count, height/keyspace consistency) that the
// driver's DMA-mapping cost model and the new error paths rely on. A
// reference tree (radix_ref_test.go) runs the same ops: Insert's newNodes,
// Nodes() and Height() price DMA mapping, so they must match it exactly.
//
// The input encodes operations as 9-byte records: 1 op byte (insert /
// lookup / delete, mod 3) followed by an 8-byte little-endian key. Keys
// are folded into a few density classes so inserts actually collide with
// deletes instead of scattering across the 64-bit space.
func FuzzRadixTree(f *testing.F) {
	rec := func(op byte, key uint64) []byte {
		b := make([]byte, 9)
		b[0] = op
		binary.LittleEndian.PutUint64(b[1:], key)
		return b
	}
	cat := func(rs ...[]byte) []byte {
		var out []byte
		for _, r := range rs {
			out = append(out, r...)
		}
		return out
	}
	// Seed corpus: the shapes that exercise every structural transition.
	f.Add(cat(rec(0, 0)))                                        // single key 0
	f.Add(cat(rec(0, 0), rec(2, 0)))                             // insert then delete to empty
	f.Add(cat(rec(0, 5), rec(0, 5)))                             // overwrite same key
	f.Add(cat(rec(0, 1), rec(0, 1<<30)))                         // forces root growth
	f.Add(cat(rec(0, 1<<62), rec(1, 1<<62), rec(2, 1<<62)))      // near max height
	f.Add(cat(rec(0, 63), rec(0, 64), rec(2, 63), rec(1, 64)))   // node-boundary keys
	f.Add(cat(rec(0, 7), rec(0, 7+64), rec(2, 7), rec(2, 7+64))) // free spine bottom-up
	f.Add(cat(rec(1, 99), rec(2, 99)))                           // lookup/delete on empty tree

	f.Fuzz(func(t *testing.T, data []byte) {
		var tree RadixTree
		var ref refTree
		oracle := make(map[uint64]uint64)
		var nextVal uint64
		for len(data) >= 9 {
			op := data[0] % 3
			key := binary.LittleEndian.Uint64(data[1:9])
			// Fold most keys into a dense window so ops collide; keep
			// every 4th key raw to still probe tree growth.
			if key%4 != 0 {
				key %= 4096
			}
			data = data[9:]
			switch op {
			case 0:
				nextVal++
				newNodes := tree.Insert(key, nextVal)
				if newNodes < 0 {
					t.Fatalf("Insert(%d) allocated %d nodes", key, newNodes)
				}
				if want := ref.Insert(key, nextVal); newNodes != want {
					t.Fatalf("Insert(%d) allocated %d nodes, reference %d", key, newNodes, want)
				}
				oracle[key] = nextVal
			case 1:
				v, ok := tree.Lookup(key)
				wantV, wantOK := oracle[key]
				if ok != wantOK || (ok && v != wantV) {
					t.Fatalf("Lookup(%d) = %d,%v; oracle %d,%v", key, v, ok, wantV, wantOK)
				}
			case 2:
				ok := tree.Delete(key)
				ref.Delete(key)
				_, wantOK := oracle[key]
				if ok != wantOK {
					t.Fatalf("Delete(%d) = %v, oracle has key: %v", key, ok, wantOK)
				}
				delete(oracle, key)
			}
			// Structural invariants after every op.
			if tree.Size() != len(oracle) {
				t.Fatalf("Size = %d, oracle holds %d", tree.Size(), len(oracle))
			}
			if tree.Size() == 0 && tree.Nodes() != 0 {
				t.Fatalf("empty tree retains %d nodes", tree.Nodes())
			}
			if tree.Size() > 0 && tree.Nodes() < tree.Height() {
				t.Fatalf("nodes (%d) < height (%d): broken spine", tree.Nodes(), tree.Height())
			}
			if tree.Nodes() != ref.Nodes() || tree.Height() != ref.Height() {
				t.Fatalf("nodes/height = %d/%d, reference %d/%d",
					tree.Nodes(), tree.Height(), ref.Nodes(), ref.Height())
			}
		}
		// Final sweep: every oracle key must still resolve.
		for k, want := range oracle {
			if v, ok := tree.Lookup(k); !ok || v != want {
				t.Fatalf("post-run Lookup(%d) = %d,%v, want %d,true", k, v, ok, want)
			}
		}
	})
}
