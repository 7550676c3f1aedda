// Package gen provides seeded synthetic graph generators used as offline
// stand-ins for the paper's Table 1 benchmark instances. The SNAP,
// DIMACS-10 and SuiteSparse originals are not bundled; a generator
// matched to each instance family reproduces the structure the
// algorithms are sensitive to (degree distribution, density, and the
// locality of the natural stream order), so the relations between
// algorithms carry over even though absolute numbers do not.
//
// Each generator matches one instance family:
//
//   - RandomGeometric: the paper's rggX graphs and road-network stand-ins
//   - Delaunay: the paper's delX graphs and FEM meshes
//   - Grid2D/Grid3D: regular meshes (ML_Laplace, HV15R style)
//   - RMAT: social networks, web crawls, citation graphs (power law)
//   - BarabasiAlbert: co-authorship/co-purchasing (preferential attachment)
//   - WattsStrogatz: circuits (mostly-local wiring with few long links)
//   - ErdosRenyi: unstructured control
//
// All generators are deterministic for a given seed and emit nodes in an
// order with the same locality character as the natural order of the real
// instances (spatial sort for geometric graphs, generation order for the
// preferential-attachment families), which is what one-pass partitioners
// are sensitive to.
package gen

import (
	"sort"

	"oms/internal/graph"
	"oms/internal/util"
)

// point is a 2D point in the unit square.
type point struct {
	x, y float64
}

// mortonOrder sorts points by Morton (Z-curve) cell index so that nearby
// ids are nearby in space; resolution 1024x1024 cells.
func mortonOrder(pts []point) {
	keys := make([]uint64, len(pts))
	idx := make([]int32, len(pts))
	for i, p := range pts {
		keys[i] = morton2(uint32(p.x*1024), uint32(p.y*1024))
		idx[i] = int32(i)
	}
	sort.Sort(&mortonSorter{keys, idx, pts})
}

type mortonSorter struct {
	keys []uint64
	idx  []int32
	pts  []point
}

func (s *mortonSorter) Len() int           { return len(s.keys) }
func (s *mortonSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *mortonSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.pts[i], s.pts[j] = s.pts[j], s.pts[i]
}

func morton2(x, y uint32) uint64 {
	return interleave(x) | interleave(y)<<1
}

func interleave(v uint32) uint64 {
	x := uint64(v) & 0xffff // 16 bits is plenty for a 1024 grid
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// randomPoints draws n points uniformly from the unit square.
func randomPoints(n int32, rng *util.RNG) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = point{rng.Float64(), rng.Float64()}
	}
	return pts
}

// ErdosRenyi generates a G(n, m)-style graph: m edges sampled uniformly
// from all node pairs. Parallel samples merge, so the final edge count can
// be marginally below m for dense regimes.
func ErdosRenyi(n int32, m int64, seed uint64) *graph.Graph {
	rng := util.NewRNG(seed)
	b := graph.NewBuilder(n)
	b.Reserve(int(m))
	if n < 2 {
		return b.Finish()
	}
	for i := int64(0); i < m; i++ {
		u := int32(rng.Intn(int(n)))
		v := int32(rng.Intn(int(n)))
		for v == u {
			v = int32(rng.Intn(int(n)))
		}
		b.AddEdge(u, v)
	}
	return b.Finish()
}
