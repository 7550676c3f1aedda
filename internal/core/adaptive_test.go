package core

import (
	"testing"

	"oms/internal/stream"
)

// TestAdaptiveGrowsAndRatchets: an adaptive run starts with an empty
// assignment vector, grows it to cover arrivals and their neighbors,
// and ratchets the balance threshold monotonically upward.
func TestAdaptiveGrowsAndRatchets(t *testing.T) {
	o, err := NewGP(8, 4, stream.Stats{}, Config{Epsilon: 0.03, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Adaptive() {
		t.Fatal("run not adaptive")
	}
	if got := o.AssignmentOf(12345); got != -1 {
		t.Fatalf("unseen node reports block %d, want -1", got)
	}
	lastLmax := o.LmaxValue()
	for u := int32(0); u < 2000; u++ {
		adj := []int32{}
		if u > 0 {
			adj = append(adj, u-1)
		}
		o.ObserveAdaptive(u, 1, adj, nil)
		b := o.AssignNode(u, 1, adj, nil)
		if b < 0 || b >= 8 {
			t.Fatalf("node %d assigned %d", u, b)
		}
		if lm := o.LmaxValue(); lm < lastLmax {
			t.Fatalf("lmax shrank %d -> %d at node %d", lastLmax, lm, u)
		} else {
			lastLmax = lm
		}
	}
	if o.NumParts() < 2000 {
		t.Fatalf("parts grew to %d, want >= 2000", o.NumParts())
	}
	// Neighbors grow coverage ahead of arrivals.
	o.ObserveAdaptive(2000, 1, []int32{9000}, nil)
	if o.NumParts() < 9001 {
		t.Fatalf("parts %d do not cover the forward neighbor 9000", o.NumParts())
	}
}

// TestAdaptiveEstimatorStateRestoresThresholds: importing estimator
// state re-derives lmax, capacities, and alphas so a run rebuilt by
// ForceAssign replay scores exactly like the original.
func TestAdaptiveEstimatorStateRestoresThresholds(t *testing.T) {
	mk := func() *OMS {
		o, err := NewGP(16, 4, stream.Stats{}, Config{Epsilon: 0.03, Adaptive: true, AdaptiveHeadroom: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a := mk()
	for u := int32(0); u < 500; u++ {
		var adj []int32
		if u > 0 {
			adj = append(adj, u-1)
		}
		a.ObserveAdaptive(u, 1, adj, nil)
		a.AssignNode(u, 1, adj, nil)
	}
	st, ok := a.ExportEstimator()
	if !ok {
		t.Fatal("no estimator state on adaptive run")
	}

	// Observing without adjacency grows b's assignment vector but leaves
	// its estimator short of a's edge totals: only the import restores
	// the alphas.
	b := mk()
	for u := int32(0); u < 500; u++ {
		b.ObserveAdaptive(u, 1, nil, nil)
		b.ForceAssign(u, 1, a.AssignmentOf(u))
	}
	if err := b.ImportEstimator(st); err != nil {
		t.Fatal(err)
	}
	if a.LmaxValue() != b.LmaxValue() {
		t.Fatalf("lmax %d vs %d after estimator import", a.LmaxValue(), b.LmaxValue())
	}
	for v := int32(0); v < a.Tree.NumNodes(); v++ {
		if a.AlphaOf(v) != b.AlphaOf(v) {
			t.Fatalf("alpha of tree block %d differs: %v vs %v", v, a.AlphaOf(v), b.AlphaOf(v))
		}
	}
	// Continuations agree bit for bit.
	for u := int32(500); u < 900; u++ {
		adj := []int32{u - 1, u - 250}
		a.ObserveAdaptive(u, 1, adj, nil)
		b.ObserveAdaptive(u, 1, adj, nil)
		if x, y := a.AssignNode(u, 1, adj, nil), b.AssignNode(u, 1, adj, nil); x != y {
			t.Fatalf("node %d: %d vs %d after restore", u, x, y)
		}
	}

	// Estimator state is rejected by declared runs.
	d, err := NewGP(16, 4, stream.Stats{N: 10, TotalNodeWeight: 10}, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ImportEstimator(st); err == nil {
		t.Fatal("declared run accepted estimator state")
	}
}

// TestAdaptiveReconcileTightensCaps: after Reconcile the threshold
// equals the declared-run value for the observed totals.
func TestAdaptiveReconcileTightensCaps(t *testing.T) {
	o, err := NewGP(8, 4, stream.Stats{}, Config{Epsilon: 0.03, Adaptive: true, AdaptiveHeadroom: 2})
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); u < 1000; u++ {
		o.ObserveAdaptive(u, 1, nil, nil)
		o.AssignNode(u, 1, nil, nil)
	}
	if _, _ = o.Reconcile(); o.LmaxValue() != 129 { // ceil(1.03*1000/8)
		t.Fatalf("reconciled lmax %d, want 129", o.LmaxValue())
	}
	decl, err := NewGP(8, 4, stream.Stats{N: 1000, TotalNodeWeight: 1000}, Config{Epsilon: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if o.LmaxValue() != decl.LmaxValue() {
		t.Fatalf("reconciled lmax %d != declared %d", o.LmaxValue(), decl.LmaxValue())
	}
}
