package hostos

import (
	"testing"
	"testing/quick"
)

func TestRadixInsertLookup(t *testing.T) {
	var tr RadixTree
	keys := []uint64{0, 1, 63, 64, 4095, 4096, 1 << 20, 1 << 40, ^uint64(0)}
	for i, k := range keys {
		tr.Insert(k, uint64(i)*10)
	}
	if tr.Size() != len(keys) {
		t.Fatalf("size = %d, want %d", tr.Size(), len(keys))
	}
	for i, k := range keys {
		v, ok := tr.Lookup(k)
		if !ok || v != uint64(i)*10 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := tr.Lookup(2); ok {
		t.Fatal("found absent key")
	}
}

func TestRadixReplace(t *testing.T) {
	var tr RadixTree
	tr.Insert(100, 1)
	n := tr.Insert(100, 2)
	if n != 0 {
		t.Fatalf("replacing insert allocated %d nodes", n)
	}
	if tr.Size() != 1 {
		t.Fatalf("size = %d after replace", tr.Size())
	}
	v, _ := tr.Lookup(100)
	if v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestRadixGrowthAllocatesNodes(t *testing.T) {
	var tr RadixTree
	n1 := tr.Insert(0, 1) // root only
	if n1 != 1 {
		t.Fatalf("first insert allocated %d nodes, want 1", n1)
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	// Key 64 forces a second level.
	n2 := tr.Insert(64, 2)
	if n2 < 2 { // new root + leaf node for slot 1
		t.Fatalf("growth insert allocated %d nodes, want >= 2", n2)
	}
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
	// Both keys still reachable after growth.
	if v, ok := tr.Lookup(0); !ok || v != 1 {
		t.Fatal("key 0 lost after growth")
	}
	if v, ok := tr.Lookup(64); !ok || v != 2 {
		t.Fatal("key 64 missing")
	}
}

func TestRadixDenseInsertAmortizesNodes(t *testing.T) {
	var tr RadixTree
	total := 0
	for i := uint64(0); i < 4096; i++ {
		total += tr.Insert(i, i)
	}
	// 4096 keys over fanout-64 leaves: 64 leaf nodes + interior; far
	// fewer nodes than keys — dense DMA mappings amortize tree work.
	if total >= 200 {
		t.Fatalf("dense insert allocated %d nodes, want < 200", total)
	}
	if tr.Size() != 4096 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestRadixDelete(t *testing.T) {
	var tr RadixTree
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i*1000, i)
	}
	if !tr.Delete(5000) {
		t.Fatal("Delete existing returned false")
	}
	if tr.Delete(5000) {
		t.Fatal("double Delete returned true")
	}
	if _, ok := tr.Lookup(5000); ok {
		t.Fatal("deleted key still present")
	}
	if tr.Size() != 99 {
		t.Fatalf("size = %d, want 99", tr.Size())
	}
	for i := uint64(0); i < 100; i++ {
		if i == 5 {
			continue
		}
		if v, ok := tr.Lookup(i * 1000); !ok || v != i {
			t.Fatalf("key %d lost after unrelated delete", i*1000)
		}
	}
}

func TestRadixDeleteAllFreesTree(t *testing.T) {
	var tr RadixTree
	for i := uint64(0); i < 500; i++ {
		tr.Insert(i*77, i)
	}
	for i := uint64(0); i < 500; i++ {
		if !tr.Delete(i * 77) {
			t.Fatalf("Delete(%d) failed", i*77)
		}
	}
	if tr.Size() != 0 || tr.Nodes() != 0 || tr.Height() != 0 {
		t.Fatalf("tree not freed: size=%d nodes=%d height=%d",
			tr.Size(), tr.Nodes(), tr.Height())
	}
}

func TestRadixDeleteAbsent(t *testing.T) {
	var tr RadixTree
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree returned true")
	}
	tr.Insert(1, 1)
	if tr.Delete(1 << 30) {
		t.Fatal("Delete of out-of-range key returned true")
	}
}

// Property: tree behaves like a map for any insert/delete sequence.
func TestRadixMatchesMap(t *testing.T) {
	type op struct {
		Key    uint16
		Val    uint64
		Delete bool
	}
	f := func(ops []op) bool {
		var tr RadixTree
		ref := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key)
			if o.Delete {
				want := false
				if _, ok := ref[k]; ok {
					want = true
					delete(ref, k)
				}
				if tr.Delete(k) != want {
					return false
				}
			} else {
				tr.Insert(k, o.Val)
				ref[k] = o.Val
			}
		}
		if tr.Size() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: node count never goes negative and size tracks inserts minus
// deletes exactly.
func TestRadixNodeAccounting(t *testing.T) {
	f := func(keys []uint32) bool {
		var tr RadixTree
		seen := map[uint64]bool{}
		for _, k := range keys {
			tr.Insert(uint64(k), 1)
			seen[uint64(k)] = true
			if tr.Nodes() < 0 || tr.Size() != len(seen) {
				return false
			}
		}
		for k := range seen {
			tr.Delete(k)
			if tr.Nodes() < 0 {
				return false
			}
		}
		return tr.Size() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Inserting a new key into a leaf that already exists allocates nothing
// and reports no new nodes: values are stored unboxed in the leaf.
func TestRadixInsertIntoLeafAllocatesNothing(t *testing.T) {
	var tr RadixTree
	tr.Insert(0, 1)
	tr.Insert(1<<20, 2) // grow to four levels
	key := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		key++ // keys 1..51 all land in key 0's leaf
		if n := tr.Insert(key, key); n != 0 {
			t.Fatalf("Insert(%d) into an existing leaf allocated %d nodes", key, n)
		}
	})
	if allocs != 0 {
		t.Fatalf("Insert into an existing leaf made %.0f allocations", allocs)
	}
	if tr.Size() != 2+51 {
		t.Fatalf("size = %d, want %d", tr.Size(), 2+51)
	}
}

// Insert's newNodes, Nodes() and Height() match the reference tree while
// a seeded mix of dense and sparse keys is inserted, then deleted in
// shuffled order until a few remain, so whole subtrees empty out and
// interior nodes are freed: these are the counts DMA-mapping cost is
// priced from.
func TestRadixNodesMatchReference(t *testing.T) {
	var tr RadixTree
	var ref refTree
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	check := func(op string, i int) {
		t.Helper()
		if tr.Nodes() != ref.Nodes() || tr.Height() != ref.Height() || tr.Size() != ref.Size() {
			t.Fatalf("%s %d: nodes/height/size = %d/%d/%d, reference %d/%d/%d", op, i,
				tr.Nodes(), tr.Height(), tr.Size(), ref.Nodes(), ref.Height(), ref.Size())
		}
	}
	var keys []uint64
	for i := 0; i < 3000; i++ {
		r := next()
		key := r % 20000
		if r%5 == 0 {
			key = r >> 20 // sparse keys force growth
		}
		keys = append(keys, key)
		if got, want := tr.Insert(key, uint64(i)), ref.Insert(key, uint64(i)); got != want {
			t.Fatalf("insert %d: Insert(%d) allocated %d nodes, reference %d", i, key, got, want)
		}
		check("insert", i)
	}
	for i := len(keys) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	for i, key := range keys[:len(keys)-10] {
		if tr.Delete(key) != ref.Delete(key) {
			t.Fatalf("delete %d: Delete(%d) disagrees with the reference", i, key)
		}
		check("delete", i)
	}
}
