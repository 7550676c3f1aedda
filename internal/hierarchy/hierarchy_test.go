package hierarchy

import (
	"testing"
	"testing/quick"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("4:16:8")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Factors) != 3 || s.Factors[0] != 4 || s.Factors[1] != 16 || s.Factors[2] != 8 {
		t.Fatalf("parsed %v", s.Factors)
	}
	if s.K() != 512 {
		t.Fatalf("K=%d want 512", s.K())
	}
	if s.Levels() != 3 {
		t.Fatalf("levels=%d", s.Levels())
	}
	if s.String() != "4:16:8" {
		t.Fatalf("String=%q", s.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{"", "4:x", "4:1:8", "0", "-2:4", "4::8"} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("spec %q accepted", in)
		}
	}
}

func TestParseDistances(t *testing.T) {
	d, err := ParseDistances("1:10:100")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.D) != 3 || d.D[0] != 1 || d.D[2] != 100 {
		t.Fatalf("parsed %v", d.D)
	}
}

func TestParseDistancesErrors(t *testing.T) {
	for _, in := range []string{"", "1:x", "10:1", "0:5", "-1:2"} {
		if _, err := ParseDistances(in); err == nil {
			t.Errorf("distances %q accepted", in)
		}
	}
}

func TestTopologyLevelMismatch(t *testing.T) {
	if _, err := NewTopology(MustSpec("4:4"), MustDistances("1:10:100")); err == nil {
		t.Fatal("mismatched levels accepted")
	}
}

func TestPEDistanceSmall(t *testing.T) {
	// S = 2:2 (2 cores per processor, 2 processors): PEs 0..3.
	top := MustTopology(MustSpec("2:2"), MustDistances("1:10"))
	cases := []struct {
		x, y int32
		want float64
	}{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {2, 3, 1},
		{0, 2, 10}, {0, 3, 10}, {1, 2, 10}, {3, 0, 10},
	}
	for _, c := range cases {
		if got := top.PEDistance(c.x, c.y); got != c.want {
			t.Errorf("D(%d,%d)=%v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestPEDistancePaperConfig(t *testing.T) {
	// S=4:16:2, D=1:10:100 (the paper's configuration with r=2).
	top := MustTopology(MustSpec("4:16:2"), MustDistances("1:10:100"))
	if top.PEDistance(0, 3) != 1 { // same processor (ids 0-3)
		t.Fatal("same-processor distance wrong")
	}
	if top.PEDistance(0, 4) != 10 { // same node, different processor
		t.Fatal("same-node distance wrong")
	}
	if top.PEDistance(0, 63) != 10 { // node covers 4*16=64 PEs
		t.Fatal("node boundary wrong")
	}
	if top.PEDistance(63, 64) != 100 { // different nodes
		t.Fatal("cross-node distance wrong")
	}
}

func TestPEDistanceProperties(t *testing.T) {
	top := MustTopology(MustSpec("3:2:4"), MustDistances("1:5:50"))
	k := top.Spec.K()
	f := func(xr, yr uint16) bool {
		x, y := int32(xr)%k, int32(yr)%k
		d := top.PEDistance(x, y)
		if (d == 0) != (x == y) {
			return false
		}
		return d == top.PEDistance(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromSpecShape(t *testing.T) {
	// S = 2:3 -> root splits into 3 (a2), each into 2 (a1). k=6.
	tr := FromSpec(MustSpec("2:3"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.K != 6 {
		t.Fatalf("K=%d", tr.K)
	}
	if tr.NumChildren[tr.Root] != 3 {
		t.Fatalf("root fanout %d want 3 (=a_l)", tr.NumChildren[tr.Root])
	}
	first, _ := tr.Children(tr.Root)
	if tr.NumChildren[first] != 2 {
		t.Fatalf("depth-1 fanout %d want 2 (=a1)", tr.NumChildren[first])
	}
	if tr.MaxDepth != 2 {
		t.Fatalf("depth %d want 2", tr.MaxDepth)
	}
}

func TestFromSpecPaperExample(t *testing.T) {
	// Figure 1: S = 4:4:4:4, 256 blocks, 4 layers.
	tr := FromSpec(MustSpec("4:4:4:4"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.K != 256 || tr.MaxDepth != 4 || tr.MaxFanout != 4 {
		t.Fatalf("K=%d depth=%d fanout=%d", tr.K, tr.MaxDepth, tr.MaxFanout)
	}
	// Node count: 1 + 4 + 16 + 64 + 256 = 341 <= 2k.
	if tr.NumNodes() != 341 {
		t.Fatalf("nodes=%d want 341", tr.NumNodes())
	}
}

func TestFromSpecLeafOrderMatchesTopology(t *testing.T) {
	// Leaves 0..a1-1 must share the deepest internal node (same
	// processor), matching Topology.PEDistance's stride convention.
	tr := FromSpec(MustSpec("4:16:2"))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	p0 := tr.Parent[tr.LeafNode[0]]
	p3 := tr.Parent[tr.LeafNode[3]]
	p4 := tr.Parent[tr.LeafNode[4]]
	if p0 != p3 {
		t.Fatal("leaves 0 and 3 should share a processor node")
	}
	if p0 == p4 {
		t.Fatal("leaves 0 and 4 must not share a processor node")
	}
}

func TestBuildArtificialPowerOfTwo(t *testing.T) {
	tr := BuildArtificial(8, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.K != 8 || tr.MaxDepth != 3 || tr.MaxFanout != 2 {
		t.Fatalf("K=%d depth=%d fanout=%d", tr.K, tr.MaxDepth, tr.MaxFanout)
	}
	if tr.NumNodes() != 15 {
		t.Fatalf("nodes=%d want 15", tr.NumNodes())
	}
}

func TestBuildArtificialK5PaperExample(t *testing.T) {
	// §3.3: k=5, b=2 -> first split covers 2 and 3 leaves.
	tr := BuildArtificial(5, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	first, count := tr.Children(tr.Root)
	if count != 2 {
		t.Fatalf("root fanout %d", count)
	}
	t1 := tr.LeafCount(first)
	t2 := tr.LeafCount(first + 1)
	if !(t1 == 2 && t2 == 3) && !(t1 == 3 && t2 == 2) {
		t.Fatalf("root children cover %d and %d leaves, want 2 and 3", t1, t2)
	}
}

func TestBuildArtificialBase4(t *testing.T) {
	for _, k := range []int32{1, 2, 3, 4, 5, 7, 16, 64, 100, 1000, 8192} {
		tr := BuildArtificial(k, 4)
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if tr.MaxFanout > 4 {
			t.Fatalf("k=%d: fanout %d exceeds base", k, tr.MaxFanout)
		}
		// Theorem 4: depth <= ceil(log_b k) + 1.
		depth := int32(0)
		for kk := int32(1); kk < k; kk *= 4 {
			depth++
		}
		if tr.MaxDepth > depth+1 {
			t.Fatalf("k=%d: depth %d exceeds log bound %d", k, tr.MaxDepth, depth+1)
		}
	}
}

func TestBuildArtificialProperty(t *testing.T) {
	f := func(kRaw uint16, bRaw uint8) bool {
		k := int32(kRaw%2000) + 1
		b := int32(bRaw%7) + 2
		tr := BuildArtificial(k, b)
		return tr.Validate() == nil && tr.MaxFanout <= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// lookupTrees are the shapes of core's oracle table plus the edge cases of
// the child lookup: k = 1, more children than leaves per child, fewer
// leaves than the base.
func lookupTrees() map[string]*Tree {
	return map[string]*Tree{
		"art-k4096b4": BuildArtificial(4096, 4), // shift at every level
		"art-k100b4":  BuildArtificial(100, 4),  // search: heterogeneous spans
		"art-k37b3":   BuildArtificial(37, 3),   // search, ragged depth
		"art-k1":      BuildArtificial(1, 4),    // the root is the only leaf
		"art-k5b8":    BuildArtificial(5, 8),    // fewer leaves than the base
		"art-k24b8":   BuildArtificial(24, 8),   // division: 8 children of span 3
		// Binary search over 2048 ragged children (952 of span 2, then
		// 1096 of span 1): Options.Base has no cap.
		"art-k3000b2048": BuildArtificial(3000, 2048),
		"spec4:16:8":     FromSpec(MustSpec("4:16:8")),
		"spec4:16:2":     FromSpec(MustSpec("4:16:2")),
		"spec3:5:7":      FromSpec(MustSpec("3:5:7")), // division: spans 15 and 3
		"spec2:16":       FromSpec(MustSpec("2:16")),  // fanout 16 over span 2
		"spec16":         FromSpec(MustSpec("16")),
	}
}

func TestChildContaining(t *testing.T) {
	for name, tr := range lookupTrees() {
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Descending for every leaf asks every internal node about every
		// leaf it covers: the first and the last of each child included.
		for leaf := int32(0); leaf < tr.K; leaf++ {
			v := tr.Root
			for !tr.IsLeaf(v) {
				c := tr.ChildContaining(v, leaf)
				if tr.Parent[c] != v || tr.KL[c] > leaf || tr.KR[c] < leaf {
					t.Fatalf("%s: ChildContaining(%d, %d) = %d, child of %d covering [%d,%d]", name, v, leaf, c, tr.Parent[c], tr.KL[c], tr.KR[c])
				}
				v = c
			}
			if tr.LeafID(v) != leaf {
				t.Fatalf("%s: descended to leaf %d, want %d", name, tr.LeafID(v), leaf)
			}
		}
	}
}

func TestChildShiftOnlyWherePowerOfTwoSpan(t *testing.T) {
	shifted := 0
	for name, tr := range lookupTrees() {
		if len(tr.ChildShift) != int(tr.NumNodes()) {
			t.Fatalf("%s: %d shifts for %d nodes", name, len(tr.ChildShift), tr.NumNodes())
		}
		for v := int32(0); v < tr.NumNodes(); v++ {
			want := int8(-1)
			for s := int8(0); s < 31; s++ {
				if tr.ChildSpan[v] == 1<<s {
					want = s
				}
			}
			if tr.ChildShift[v] != want {
				t.Fatalf("%s: node %d span %d has shift %d, want %d", name, v, tr.ChildSpan[v], tr.ChildShift[v], want)
			}
			if want >= 0 {
				shifted++
			}
		}
	}
	if shifted == 0 {
		t.Fatal("no tree took the shift path")
	}
	// The trees the shift is for take it at every internal node.
	for _, tr := range []*Tree{BuildArtificial(4096, 4), FromSpec(MustSpec("4:16:8"))} {
		for v := int32(0); v < tr.NumNodes(); v++ {
			if !tr.IsLeaf(v) && tr.ChildShift[v] < 0 {
				t.Fatalf("k=%d: internal node %d has no shift", tr.K, v)
			}
		}
	}
}

func TestPathToLeaf(t *testing.T) {
	tr := FromSpec(MustSpec("2:2:2"))
	var buf []int32
	buf = tr.PathToLeaf(5, buf)
	if len(buf) != 3 {
		t.Fatalf("path length %d want 3", len(buf))
	}
	if buf[0] != tr.Root {
		t.Fatal("path does not start at root")
	}
	for i := 1; i < len(buf); i++ {
		if tr.Parent[buf[i]] != buf[i-1] {
			t.Fatal("path not parent-linked")
		}
	}
}

func TestLemma1NodeBound(t *testing.T) {
	// Lemma 1: total tree blocks <= 2k for all hierarchies with a_i >= 2.
	specs := []string{"2:2:2:2:2:2", "4:16:128", "3:5:7", "2:3:4:5"}
	for _, s := range specs {
		tr := FromSpec(MustSpec(s))
		if int64(tr.NumNodes()) > 2*int64(tr.K) {
			t.Errorf("spec %s: %d nodes > 2k=%d", s, tr.NumNodes(), 2*tr.K)
		}
	}
}

func TestBuildArtificialPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BuildArtificial(0, 2) },
		func() { BuildArtificial(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestTrivialK1Tree(t *testing.T) {
	tr := BuildArtificial(1, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.IsLeaf(tr.Root) || tr.MaxDepth != 0 {
		t.Fatal("k=1 tree should be a single leaf")
	}
}

// BenchmarkChildContainingWideRaggedRoot prices the lookup no ledger
// workload reaches: 2048 heterogeneous children under one node.
func BenchmarkChildContainingWideRaggedRoot(b *testing.B) {
	tr := BuildArtificial(3000, 2048)
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += tr.ChildContaining(tr.Root, int32(i*7919)%tr.K)
	}
	_ = sink
}
