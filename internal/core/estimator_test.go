package core

import (
	"testing"

	"oms/internal/stream"
)

// TestEstimatorProjectionEnvelope: the projection in force is always at
// least the observed total and at most (1+headroom) above it (hints
// aside) — the invariant the adaptive imbalance bound rests on.
func TestEstimatorProjectionEnvelope(t *testing.T) {
	const h = 0.25
	e := NewEstimator(stream.Stats{}, h)
	for i := 0; i < 5000; i++ {
		e.Observe(int32(1+i%3), 4, 4)
		obs, est := e.Observed(), e.Estimates()
		if est.TotalNodeWeight < obs.TotalNodeWeight {
			t.Fatalf("step %d: projection %d below observed %d", i, est.TotalNodeWeight, obs.TotalNodeWeight)
		}
		limit := int64(float64(obs.TotalNodeWeight)*(1+h)*(1+h)) + 2
		if est.TotalNodeWeight > limit {
			t.Fatalf("step %d: projection %d beyond (1+h)^2 envelope %d of observed %d",
				i, est.TotalNodeWeight, limit, obs.TotalNodeWeight)
		}
	}
	if e.Revision() == 0 {
		t.Fatal("projection never ratcheted")
	}
}

// TestEstimatorHintsFloorAndReconcile: hints floor the projection until
// observations overtake them; Reconcile snaps to exact totals and
// reports the overshoot.
func TestEstimatorHintsFloorAndReconcile(t *testing.T) {
	e := NewEstimator(stream.Stats{N: 100, M: 300, TotalNodeWeight: 100, TotalEdgeWeight: 300}, 0.1)
	for i := 0; i < 10; i++ {
		e.Observe(1, 6, 6)
	}
	if est := e.Estimates(); est.N != 100 || est.TotalNodeWeight != 100 || est.M != 300 {
		t.Fatalf("hinted floor not honored: %+v", est)
	}
	for i := 0; i < 990; i++ {
		e.Observe(1, 6, 6)
	}
	if est := e.Estimates(); est.N <= 100 || est.TotalNodeWeight <= 100 {
		t.Fatalf("projection stuck at the hint after overtaking it: %+v", est)
	}
	errN, errW := e.Reconcile()
	if errN < 0 || errW < 0 {
		t.Fatalf("projection error negative: %v %v", errN, errW)
	}
	obs, est := e.Observed(), e.Estimates()
	if est != obs {
		t.Fatalf("reconcile did not snap to observed: est %+v obs %+v", est, obs)
	}
	if obs.N != 1000 || obs.M != 3000 {
		t.Fatalf("observed totals wrong: %+v", obs)
	}
}

// TestEstimatorExportImportRoundTrip: a restored estimator continues
// exactly where the exported one was, ratchet trigger included.
func TestEstimatorExportImportRoundTrip(t *testing.T) {
	a := NewEstimator(stream.Stats{}, 0.5)
	for i := 0; i < 137; i++ {
		a.Observe(2, 3, 5)
	}
	b := NewEstimator(stream.Stats{}, 0.5)
	b.Import(a.Export())
	for i := 0; i < 229; i++ {
		ra := a.Observe(2, 3, 5)
		rb := b.Observe(2, 3, 5)
		if ra != rb {
			t.Fatalf("step %d: ratchet diverged after import (%v vs %v)", i, ra, rb)
		}
	}
	if a.Export() != b.Export() {
		t.Fatalf("state diverged:\n%+v\n%+v", a.Export(), b.Export())
	}
}
