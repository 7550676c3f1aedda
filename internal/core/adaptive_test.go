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
