package gen

import (
	"math"

	"oms/internal/graph"
	"oms/internal/util"
)

// RandomGeometric generates the paper's rggX family: n points uniform in
// the unit square, an edge between every pair at Euclidean distance below
// r = radiusFactor * sqrt(ln n / n). The paper uses radiusFactor = 0.55.
// Node ids follow a Morton spatial sort, matching the locality of the
// DIMACS rgg instances' natural order. Expected time O(n + m) via cell
// bucketing.
func RandomGeometric(n int32, radiusFactor float64, seed uint64) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(max32(n, 0)).Finish()
	}
	rng := util.NewRNG(seed)
	pts := randomPoints(n, rng)
	mortonOrder(pts)
	r := radiusFactor * math.Sqrt(math.Log(float64(n))/float64(n))
	return geometricEdges(pts, r)
}

// geometricEdges connects all pairs within distance r using a uniform grid
// with cell side r: every unordered pair of cells within reach is scanned
// once, a cell with itself and with its 4 forward neighbours, so each
// edge is emitted once.
func geometricEdges(pts []point, r float64) *graph.Graph {
	n := int32(len(pts))
	cells := int(1/r) + 1
	if cells < 1 {
		cells = 1
	}
	cellOf := func(p point) (int, int) {
		cx := int(p.x / r)
		cy := int(p.y / r)
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	// Bucket points by cell (counting sort).
	count := make([]int32, cells*cells+1)
	for _, p := range pts {
		cx, cy := cellOf(p)
		count[cx*cells+cy+1]++
	}
	for i := 1; i <= cells*cells; i++ {
		count[i] += count[i-1]
	}
	bucket := make([]int32, n)
	cursor := append([]int32(nil), count[:cells*cells]...)
	for i := int32(0); i < n; i++ {
		cx, cy := cellOf(pts[i])
		c := cx*cells + cy
		bucket[cursor[c]] = i
		cursor[c]++
	}
	r2 := r * r
	near := func(u, v int32) bool {
		// Negation is exact, so the squares do not depend on which
		// endpoint is subtracted.
		dx := pts[v].x - pts[u].x
		dy := pts[v].y - pts[u].y
		return dx*dx+dy*dy <= r2
	}
	b := graph.NewBuilder(n)
	// n^2*pi*r^2/2 edges are expected without the boundary's loss, so
	// the edge buffers are sized once.
	b.Reserve(int(float64(n) * float64(n) * math.Pi * r2 / 2))
	forward := [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	for cx := 0; cx < cells; cx++ {
		for cy := 0; cy < cells; cy++ {
			c := cx*cells + cy
			own := bucket[count[c]:count[c+1]]
			for i, u := range own {
				for _, v := range own[i+1:] {
					if near(u, v) {
						b.AddEdge(u, v)
					}
				}
			}
			for _, d := range forward {
				nx, ny := cx+d[0], cy+d[1]
				if nx >= cells || ny < 0 || ny >= cells {
					continue
				}
				o := nx*cells + ny
				other := bucket[count[o]:count[o+1]]
				for _, u := range own {
					for _, v := range other {
						if near(u, v) {
							b.AddEdge(u, v)
						}
					}
				}
			}
		}
	}
	return b.Finish()
}

// RoadLike generates a sparse planar road-network stand-in with average
// degree close to deg (the OSM road graphs in Table 1 average ~2.1). It
// thins a Delaunay triangulation: every node keeps its shortest incident
// edge (so no node is isolated, as in road data), and the remaining
// triangulation edges survive independently with the probability that
// meets the degree target. The result preserves the planar, spatially
// local structure streaming partitioners see in road networks.
func RoadLike(n int32, deg float64, seed uint64) *graph.Graph {
	if n <= 1 {
		return graph.NewBuilder(max32(n, 0)).Finish()
	}
	rng := util.NewRNG(seed)
	pts := randomPoints(n, rng)
	mortonOrder(pts)
	tri := newTriangulator(pts)
	for i := int32(0); i < n; i++ {
		tri.insert(i)
	}
	full := tri.edges()
	dist2 := func(u, v int32) float64 {
		dx := pts[v].x - pts[u].x
		dy := pts[v].y - pts[u].y
		return dx*dx + dy*dy
	}
	kept := make(map[int64]bool, n)
	for u := int32(0); u < n; u++ {
		adj := full.Neighbors(u)
		if len(adj) == 0 {
			continue
		}
		best := adj[0]
		bd := dist2(u, best)
		for _, v := range adj[1:] {
			if d := dist2(u, v); d < bd {
				best, bd = v, d
			}
		}
		a, c := u, best
		if a > c {
			a, c = c, a
		}
		kept[edgeKey(a, c)] = true
	}
	target := deg * float64(n) / 2
	rest := float64(full.NumEdges()) - float64(len(kept))
	q := 0.0
	if rest > 0 && target > float64(len(kept)) {
		q = (target - float64(len(kept))) / rest
	}
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for _, v := range full.Neighbors(u) {
			if v <= u {
				continue
			}
			if kept[edgeKey(u, v)] || rng.Float64() < q {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Finish()
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
