// Package hostos models the host operating system components that sit on
// the UVM fault path: the virtual-memory subsystem whose
// unmap_mapping_range() the driver invokes when the GPU touches a VABlock
// partially resident on the CPU, page population (zero-filling), and the
// radix tree in which the driver stores reverse DMA address mappings.
//
// The paper (§4.4, §5.2) identifies these host components as significant,
// cross-implementation costs: they will be paid by any HMM backend, not
// just NVIDIA's driver. We therefore model them as a separate substrate
// with their own cost accounting.
package hostos

// Radix tree parameters mirroring the mainline Linux implementation
// (RADIX_TREE_MAP_SHIFT = 6 on 64-bit kernels).
const (
	radixShift  = 6
	radixFanout = 1 << radixShift // 64 slots per node
	radixMask   = radixFanout - 1
)

// radixNode is one tree node. Interior nodes fill child, leaf nodes (the
// bottom level) fill val; used marks the occupied slots either way.
// Values are stored unboxed, so inserting into an existing leaf
// allocates nothing.
type radixNode struct {
	child  [radixFanout]*radixNode
	val    [radixFanout]uint64
	used   uint64 // occupied-slot bitmap
	offset int    // slot index in parent (for delete path)
	parent *radixNode
}

// has reports whether slot idx is occupied.
func (n *radixNode) has(idx int) bool { return n.used&(1<<uint(idx)) != 0 }

// RadixTree is a Linux-style radix tree keyed by uint64 (page indices in
// the driver's usage) storing uint64 values (DMA addresses). The driver
// charges time per node allocated, so Insert reports allocations.
//
// The zero value is an empty tree.
type RadixTree struct {
	root   *radixNode
	height int // number of levels; key space covered = 64^height
	size   int
	nodes  int // live node count, for diagnostics and cost modeling
}

// Size returns the number of stored keys.
func (t *RadixTree) Size() int { return t.size }

// Nodes returns the number of live interior/leaf nodes.
func (t *RadixTree) Nodes() int { return t.nodes }

// Height returns the current tree height in levels.
func (t *RadixTree) Height() int { return t.height }

// maxKey returns the largest key representable at the current height.
func (t *RadixTree) maxKey() uint64 {
	if t.height == 0 {
		return 0
	}
	if t.height*radixShift >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.height*radixShift)) - 1
}

// Insert stores value under key, replacing any previous value. It returns
// the number of radix nodes newly allocated, which the UVM driver model
// converts into DMA-mapping setup time (the Figure 14 "GPU state
// initialization" cost is dominated by this radix-tree work).
func (t *RadixTree) Insert(key, value uint64) (newNodes int) {
	// Grow the tree until the key fits.
	if t.root == nil {
		t.root = &radixNode{}
		t.nodes++
		newNodes++
		t.height = 1
	}
	for key > t.maxKey() {
		newRoot := &radixNode{}
		t.nodes++
		newNodes++
		newRoot.child[0] = t.root
		newRoot.used = 1
		t.root.parent = newRoot
		t.root.offset = 0
		t.root = newRoot
		t.height++
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		idx := int(key>>(uint(level)*radixShift)) & radixMask
		child := n.child[idx]
		if child == nil {
			child = &radixNode{parent: n, offset: idx}
			t.nodes++
			newNodes++
			n.child[idx] = child
			n.used |= 1 << uint(idx)
		}
		n = child
	}
	idx := int(key) & radixMask
	if !n.has(idx) {
		n.used |= 1 << uint(idx)
		t.size++
	}
	n.val[idx] = value
	return newNodes
}

// Lookup returns the value stored under key, if any.
func (t *RadixTree) Lookup(key uint64) (uint64, bool) {
	if t.root == nil || key > t.maxKey() {
		return 0, false
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		n = n.child[int(key>>(uint(level)*radixShift))&radixMask]
		if n == nil {
			return 0, false
		}
	}
	idx := int(key) & radixMask
	return n.val[idx], n.has(idx)
}

// Delete removes key and returns whether it was present. Empty nodes are
// freed bottom-up, as the kernel does.
func (t *RadixTree) Delete(key uint64) bool {
	if t.root == nil || key > t.maxKey() {
		return false
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		n = n.child[int(key>>(uint(level)*radixShift))&radixMask]
		if n == nil {
			return false
		}
	}
	idx := int(key) & radixMask
	if !n.has(idx) {
		return false
	}
	n.val[idx] = 0
	n.used &^= 1 << uint(idx)
	t.size--
	// Free empty nodes up the spine.
	for n != nil && n.used == 0 && n != t.root {
		parent := n.parent
		parent.child[n.offset] = nil
		parent.used &^= 1 << uint(n.offset)
		t.nodes--
		n = parent
	}
	if t.size == 0 && t.root != nil {
		t.root = nil
		t.nodes = 0
		t.height = 0
	}
	return true
}
