package oms_test

import (
	"testing"

	"oms"
)

func TestOrderedSourcePartitionStaysBalanced(t *testing.T) {
	g := oms.GenRMATSocial(8192, 40000, 3)
	k := int32(64)
	for _, order := range []oms.StreamOrder{
		oms.OrderNatural, oms.OrderRandom, oms.OrderDegreeDesc, oms.OrderDegreeAsc, oms.OrderBFS,
	} {
		src := oms.NewOrderedSource(g, order, 7)
		res, err := oms.Partition(src, k, oms.Options{})
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
			t.Fatalf("%v: %v", order, err)
		}
	}
}

func TestOrderedSourceBFSHelpsOnMesh(t *testing.T) {
	// On a spatially ordered mesh, a random stream order destroys the
	// locality one-pass partitioners depend on: the natural (spatial)
	// order must cut clearly fewer edges.
	g := oms.GenDelaunay(20000, 5)
	k := int32(64)
	natural, err := oms.Partition(oms.NewOrderedSource(g, oms.OrderNatural, 1), k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	random, err := oms.Partition(oms.NewOrderedSource(g, oms.OrderRandom, 1), k, oms.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if natural.EdgeCut(g) >= random.EdgeCut(g) {
		t.Fatalf("natural order cut %d not below random order cut %d",
			natural.EdgeCut(g), random.EdgeCut(g))
	}
}
