package hostos

// radix_ref_test.go keeps the original radix tree, whose slots held
// either a child node or a boxed uint64 value, as the reference for the
// typed-node tree: Insert's newNodes, Nodes() and Height() price DMA
// mapping, so they must match it op for op.

type refNode struct {
	slots  [radixFanout]any // child *refNode or leaf value
	count  int              // occupied slots
	offset int              // slot index in parent (for delete path)
	parent *refNode
}

// refTree is a Linux-style radix tree keyed by uint64 (page indices in
// the driver's usage) storing uint64 values (DMA addresses). The driver
// charges time per node allocated, so Insert reports allocations.
//
// The zero value is an empty tree.
type refTree struct {
	root   *refNode
	height int // number of levels; key space covered = 64^height
	size   int
	nodes  int // live node count, for diagnostics and cost modeling
}

// Size returns the number of stored keys.
func (t *refTree) Size() int { return t.size }

// Nodes returns the number of live interior/leaf nodes.
func (t *refTree) Nodes() int { return t.nodes }

// Height returns the current tree height in levels.
func (t *refTree) Height() int { return t.height }

// maxKey returns the largest key representable at the current height.
func (t *refTree) maxKey() uint64 {
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
func (t *refTree) Insert(key, value uint64) (newNodes int) {
	// Grow the tree until the key fits.
	if t.root == nil {
		t.root = &refNode{}
		t.nodes++
		newNodes++
		t.height = 1
	}
	for key > t.maxKey() {
		newRoot := &refNode{}
		t.nodes++
		newNodes++
		newRoot.slots[0] = t.root
		newRoot.count = 1
		t.root.parent = newRoot
		t.root.offset = 0
		t.root = newRoot
		t.height++
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		idx := int(key>>(uint(level)*radixShift)) & radixMask
		child, ok := n.slots[idx].(*refNode)
		if !ok {
			if n.slots[idx] == nil {
				n.count++
			}
			child = &refNode{parent: n, offset: idx}
			t.nodes++
			newNodes++
			n.slots[idx] = child
		}
		n = child
	}
	idx := int(key) & radixMask
	if n.slots[idx] == nil {
		n.count++
		t.size++
	}
	n.slots[idx] = value
	return newNodes
}

// Lookup returns the value stored under key, if any.
func (t *refTree) Lookup(key uint64) (uint64, bool) {
	if t.root == nil || key > t.maxKey() {
		return 0, false
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		idx := int(key>>(uint(level)*radixShift)) & radixMask
		child, ok := n.slots[idx].(*refNode)
		if !ok {
			return 0, false
		}
		n = child
	}
	v, ok := n.slots[int(key)&radixMask].(uint64)
	return v, ok
}

// Delete removes key and returns whether it was present. Empty nodes are
// freed bottom-up, as the kernel does.
func (t *refTree) Delete(key uint64) bool {
	if t.root == nil || key > t.maxKey() {
		return false
	}
	n := t.root
	for level := t.height - 1; level > 0; level-- {
		idx := int(key>>(uint(level)*radixShift)) & radixMask
		child, ok := n.slots[idx].(*refNode)
		if !ok {
			return false
		}
		n = child
	}
	idx := int(key) & radixMask
	if _, ok := n.slots[idx].(uint64); !ok {
		return false
	}
	n.slots[idx] = nil
	n.count--
	t.size--
	// Free empty nodes up the spine.
	for n != nil && n.count == 0 && n != t.root {
		parent := n.parent
		parent.slots[n.offset] = nil
		parent.count--
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
