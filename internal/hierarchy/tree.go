package hierarchy

import (
	"fmt"
	"math/bits"
)

// Tree is the multi-section tree: the hierarchy of partitioning
// subproblems of the online recursive multi-section. Leaves are final
// blocks (PEs) numbered 0..K-1 in left-to-right order; every internal node
// is one one-pass partitioning subproblem whose children are its blocks.
//
// Nodes are stored in flat parallel arrays; the children of a node occupy
// a contiguous index range, so the per-layer scoring loop of Algorithm 1
// scans a contiguous weight slice (cache-friendly, the property the
// paper's §4.2 credits for OMS's scalability).
type Tree struct {
	Parent      []int32
	FirstChild  []int32 // -1 for leaves
	NumChildren []int32
	KL, KR      []int32 // covered leaf range, inclusive
	Depth       []int32
	// ChildSpan[v] > 0 means every child of v covers exactly ChildSpan[v]
	// leaves; 0 means heterogeneous children (Algorithm 2's near-equal
	// splits) or a leaf.
	ChildSpan []int32
	// ChildShift[v] >= 0 means ChildSpan[v] == 1<<ChildShift[v], so the
	// child index of a leaf is a subtract and a shift: every level of a
	// base-4 tree over a power-of-four k and of 4:16:8. -1 everywhere
	// else (ChildSpan 0 or not a power of two).
	ChildShift []int8

	Root      int32
	K         int32
	MaxDepth  int32 // depth of the deepest leaf; root is depth 0
	MaxFanout int32
	LeafNode  []int32 // leaf id -> tree node index
}

// FromSpec builds the homogeneous multi-section tree of a topology spec:
// the root splits into a_l children, those into a_{l-1}, ..., bottoming
// out at a1 single-leaf children (paper §3.1).
func FromSpec(s Spec) *Tree {
	l := len(s.Factors)
	if l == 0 {
		panic("hierarchy: empty spec")
	}
	k := s.K()
	t := newTreeBuffers(k)
	// spans[j] = leaves covered by a node at depth j.
	spans := make([]int32, l+1)
	spans[l] = 1
	for j := l - 1; j >= 0; j-- {
		// A node at depth j splits into factor f = a_{l-j}; its children
		// live at depth j+1.
		spans[j] = spans[j+1] * s.Factors[l-1-j]
	}
	root := t.addNode(-1, 0, k-1, 0)
	type item struct{ node, depth int32 }
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		d := int(it.depth)
		if d == l {
			continue // leaf
		}
		fanout := s.Factors[l-1-d]
		span := spans[d+1]
		first := int32(len(t.Parent))
		t.FirstChild[it.node] = first
		t.NumChildren[it.node] = fanout
		t.ChildSpan[it.node] = span
		kl := t.KL[it.node]
		for c := int32(0); c < fanout; c++ {
			child := t.addNode(it.node, kl+c*span, kl+(c+1)*span-1, it.depth+1)
			queue = append(queue, item{child, it.depth + 1})
		}
	}
	t.finish()
	return t
}

// BuildArtificial implements the paper's Algorithm 2 generalized to
// recursive b-section: it builds a multi-section tree over k leaves where
// every node has at most base children covering near-equal leaf ranges.
// The paper's tuning selects base = 4. base must be >= 2 and k >= 1.
func BuildArtificial(k, base int32) *Tree {
	if base < 2 {
		panic(fmt.Sprintf("hierarchy: base %d < 2", base))
	}
	if k < 1 {
		panic(fmt.Sprintf("hierarchy: k %d < 1", k))
	}
	t := newTreeBuffers(k)
	root := t.addNode(-1, 0, k-1, 0)
	t.buildHierarchy(root, base)
	t.finish()
	return t
}

// buildHierarchy is Algorithm 2: create min(base, t) sub-blocks covering
// near-equal shares of the node's leaf range, then recurse.
func (t *Tree) buildHierarchy(node, base int32) {
	kl, kr := t.KL[node], t.KR[node]
	total := kr - kl + 1
	if total == 1 {
		return // line 2: leaf reached
	}
	c := base
	if total < c {
		c = total
	}
	first := int32(len(t.Parent))
	t.FirstChild[node] = first
	t.NumChildren[node] = c
	// Split [kl, kr] into c near-equal parts (sizes differ by at most 1,
	// the b-ary generalization of the floor((kL+kR)/2) midpoint split).
	q, r := total/c, total%c
	uniform := r == 0
	pos := kl
	for i := int32(0); i < c; i++ {
		size := q
		if i < r {
			size++
		}
		t.addNode(node, pos, pos+size-1, t.Depth[node]+1)
		pos += size
	}
	if uniform {
		t.ChildSpan[node] = q
	}
	for i := int32(0); i < c; i++ {
		t.buildHierarchy(first+i, base)
	}
}

func newTreeBuffers(k int32) *Tree {
	// Lemma 1: a multi-section tree over k leaves has at most 2k-1 nodes.
	capHint := 2 * int(k)
	return &Tree{
		Parent:      make([]int32, 0, capHint),
		FirstChild:  make([]int32, 0, capHint),
		NumChildren: make([]int32, 0, capHint),
		KL:          make([]int32, 0, capHint),
		KR:          make([]int32, 0, capHint),
		Depth:       make([]int32, 0, capHint),
		ChildSpan:   make([]int32, 0, capHint),
		K:           k,
	}
}

func (t *Tree) addNode(parent, kl, kr, depth int32) int32 {
	id := int32(len(t.Parent))
	t.Parent = append(t.Parent, parent)
	t.FirstChild = append(t.FirstChild, -1)
	t.NumChildren = append(t.NumChildren, 0)
	t.KL = append(t.KL, kl)
	t.KR = append(t.KR, kr)
	t.Depth = append(t.Depth, depth)
	t.ChildSpan = append(t.ChildSpan, 0)
	return id
}

func (t *Tree) finish() {
	t.Root = 0
	t.LeafNode = make([]int32, t.K)
	t.ChildShift = make([]int8, t.NumNodes())
	for v := int32(0); v < t.NumNodes(); v++ {
		t.ChildShift[v] = -1
		if span := t.ChildSpan[v]; span > 0 && span&(span-1) == 0 {
			t.ChildShift[v] = int8(bits.TrailingZeros32(uint32(span)))
		}
		if t.NumChildren[v] == 0 {
			t.LeafNode[t.KL[v]] = v
		}
		if t.Depth[v] > t.MaxDepth {
			t.MaxDepth = t.Depth[v]
		}
		if t.NumChildren[v] > t.MaxFanout {
			t.MaxFanout = t.NumChildren[v]
		}
	}
}

// NumNodes returns the number of tree nodes (blocks at all levels).
func (t *Tree) NumNodes() int32 { return int32(len(t.Parent)) }

// IsLeaf reports whether v is a final block.
func (t *Tree) IsLeaf(v int32) bool { return t.NumChildren[v] == 0 }

// LeafID returns the final-block id of leaf node v.
func (t *Tree) LeafID(v int32) int32 { return t.KL[v] }

// LeafCount returns t(v): how many final blocks node v covers.
func (t *Tree) LeafCount(v int32) int32 { return t.KR[v] - t.KL[v] + 1 }

// Children returns the contiguous child range [first, first+count) of v.
func (t *Tree) Children(v int32) (first, count int32) {
	return t.FirstChild[v], t.NumChildren[v]
}

// ChildContaining returns the child of v whose leaf range contains leaf,
// which must lie in v's own range. A shift where the children's span is
// a power of two, one division where it is uniform otherwise, and a
// binary search of the contiguous children's KL for Algorithm 2's
// heterogeneous splits: O(log base) there, whatever base the caller set.
func (t *Tree) ChildContaining(v, leaf int32) int32 {
	first := t.FirstChild[v]
	if s := t.ChildShift[v]; s >= 0 {
		return first + (leaf-t.KL[v])>>uint8(s)
	}
	if span := t.ChildSpan[v]; span > 0 {
		return first + (leaf-t.KL[v])/span
	}
	// The last child c in [lo, hi] with KL[c] <= leaf.
	lo, hi := first, first+t.NumChildren[v]-1
	for lo < hi {
		mid := lo + (hi-lo+1)>>1
		if t.KL[mid] <= leaf {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// PathToLeaf appends the internal nodes on the root-to-leaf path for the
// given final block (excluding the leaf itself) to buf and returns it.
func (t *Tree) PathToLeaf(leaf int32, buf []int32) []int32 {
	buf = buf[:0]
	v := t.Root
	for !t.IsLeaf(v) {
		buf = append(buf, v)
		v = t.ChildContaining(v, leaf)
	}
	return buf
}

// Validate checks structural invariants; used by tests and after
// construction in debug paths.
func (t *Tree) Validate() error {
	n := t.NumNodes()
	if n == 0 {
		return fmt.Errorf("hierarchy: empty tree")
	}
	if int64(n) > 2*int64(t.K) {
		return fmt.Errorf("hierarchy: %d nodes exceeds Lemma-1 bound 2k=%d", n, 2*t.K)
	}
	if t.KL[t.Root] != 0 || t.KR[t.Root] != t.K-1 {
		return fmt.Errorf("hierarchy: root covers [%d,%d], want [0,%d]", t.KL[t.Root], t.KR[t.Root], t.K-1)
	}
	leaves := int32(0)
	for v := int32(0); v < n; v++ {
		if t.KL[v] > t.KR[v] {
			return fmt.Errorf("hierarchy: node %d has empty range", v)
		}
		if t.IsLeaf(v) {
			if t.KL[v] != t.KR[v] {
				return fmt.Errorf("hierarchy: leaf %d covers %d blocks", v, t.LeafCount(v))
			}
			leaves++
			continue
		}
		first, count := t.Children(v)
		if count < 2 {
			return fmt.Errorf("hierarchy: internal node %d has %d children", v, count)
		}
		if s := t.ChildShift[v]; s >= 0 && t.ChildSpan[v] != 1<<s {
			return fmt.Errorf("hierarchy: node %d claims shift %d for child span %d", v, s, t.ChildSpan[v])
		}
		pos := t.KL[v]
		for c := first; c < first+count; c++ {
			if t.Parent[c] != v {
				return fmt.Errorf("hierarchy: node %d parent pointer broken", c)
			}
			if t.KL[c] != pos {
				return fmt.Errorf("hierarchy: children of %d not contiguous at %d", v, c)
			}
			if t.Depth[c] != t.Depth[v]+1 {
				return fmt.Errorf("hierarchy: child %d depth %d, parent depth %d", c, t.Depth[c], t.Depth[v])
			}
			if span := t.ChildSpan[v]; span > 0 && t.LeafCount(c) != span {
				return fmt.Errorf("hierarchy: node %d claims uniform span %d but child %d covers %d", v, span, c, t.LeafCount(c))
			}
			pos = t.KR[c] + 1
		}
		if pos != t.KR[v]+1 {
			return fmt.Errorf("hierarchy: children of %d cover [%d,%d), node covers [%d,%d]", v, t.KL[v], pos, t.KL[v], t.KR[v])
		}
	}
	if leaves != t.K {
		return fmt.Errorf("hierarchy: %d leaves, want k=%d", leaves, t.K)
	}
	for leaf := int32(0); leaf < t.K; leaf++ {
		v := t.LeafNode[leaf]
		if !t.IsLeaf(v) || t.KL[v] != leaf {
			return fmt.Errorf("hierarchy: LeafNode[%d] broken", leaf)
		}
	}
	return nil
}
