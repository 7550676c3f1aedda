package gen

import (
	"oms/internal/graph"
	"oms/internal/util"
)

// Delaunay generates the paper's delX family: the Delaunay triangulation
// of n random points in the unit square (edges of the triangulation).
// Implementation: incremental Bowyer–Watson with cavity re-triangulation.
// Points are inserted in Morton order so the walk-based point location is
// O(1) amortized and node ids have spatial locality, matching the natural
// order of the DIMACS delaunay instances (m is approximately 3n).
func Delaunay(n int32, seed uint64) *graph.Graph {
	if n <= 0 {
		return graph.NewBuilder(0).Finish()
	}
	rng := util.NewRNG(seed)
	pts := randomPoints(n, rng)
	mortonOrder(pts)
	d := newTriangulator(pts)
	for i := int32(0); i < n; i++ {
		d.insert(i)
	}
	return d.edges()
}

// triangulator holds the Bowyer–Watson state. Triangle i has vertices
// verts[3i..3i+2] (counter-clockwise) and neighbors nbr[3i+e], where edge
// e is the edge opposite vertex e (connecting the other two vertices).
// Vertex ids n, n+1, n+2 are the enclosing super-triangle corners.
type triangulator struct {
	pts  []point // input points followed by 3 super-triangle corners
	n    int32
	vert []int32 // 3 per triangle
	nbr  []int32 // 3 per triangle, -1 = no neighbor
	dead []bool
	last int32 // seed triangle for the locate walk

	// scratch, reused across inserts to avoid per-node allocation
	cavity   []int32
	stack    []int32
	boundary []bEdge
	inCav    map[int32]bool
	edgeMap  map[int64]int32
}

type bEdge struct {
	a, b int32 // directed boundary edge (cavity on the left)
	out  int32 // triangle outside the cavity across this edge, -1 if hull
}

func newTriangulator(pts []point) *triangulator {
	n := int32(len(pts))
	all := make([]point, n, n+3)
	copy(all, pts)
	// Super-triangle comfortably containing the unit square.
	all = append(all, point{-10, -10}, point{20, -10}, point{0.5, 20})
	t := &triangulator{
		pts:     all,
		n:       n,
		inCav:   make(map[int32]bool, 32),
		edgeMap: make(map[int64]int32, 32),
	}
	t.addTriangle(n, n+1, n+2, -1, -1, -1)
	return t
}

func (t *triangulator) addTriangle(a, b, c, na, nb, nc int32) int32 {
	id := int32(len(t.vert) / 3)
	t.vert = append(t.vert, a, b, c)
	t.nbr = append(t.nbr, na, nb, nc)
	t.dead = append(t.dead, false)
	return id
}

// orient2d returns >0 if points a,b,c are counter-clockwise.
func orient2d(a, b, c point) float64 {
	return float64((b.x-a.x)*(c.y-a.y)) - float64((b.y-a.y)*(c.x-a.x))
}

// inCircle returns >0 if d lies inside the circumcircle of ccw triangle
// a,b,c.
func inCircle(a, b, c, d point) float64 {
	ax, ay := a.x-d.x, a.y-d.y
	bx, by := b.x-d.x, b.y-d.y
	cx, cy := c.x-d.x, c.y-d.y
	al := float64(ax*ax) + float64(ay*ay)
	bl := float64(bx*bx) + float64(by*by)
	cl := float64(cx*cx) + float64(cy*cy)
	return float64(ax*(float64(by*cl)-float64(bl*cy))) - float64(ay*(float64(bx*cl)-float64(bl*cx))) + float64(al*(float64(bx*cy)-float64(by*cx)))
}

// locate returns a triangle containing point p via a straight walk from
// t.last.
func (t *triangulator) locate(p point) int32 {
	tri := t.last
	if tri < 0 || t.dead[tri] {
		for i := int32(len(t.dead)) - 1; i >= 0; i-- {
			if !t.dead[i] {
				tri = i
				break
			}
		}
	}
	for steps := 0; ; steps++ {
		v := t.vert[3*tri : 3*tri+3]
		a, b, c := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]]
		// Edge e is opposite vertex e: edge 0 = (v1,v2), 1 = (v2,v0),
		// 2 = (v0,v1). Walk across the first edge p is outside of.
		moved := false
		if orient2d(b, c, p) < 0 {
			tri, moved = t.nbr[3*tri+0], true
		} else if orient2d(c, a, p) < 0 {
			tri, moved = t.nbr[3*tri+1], true
		} else if orient2d(a, b, p) < 0 {
			tri, moved = t.nbr[3*tri+2], true
		}
		if !moved {
			return tri
		}
		if tri < 0 {
			// Walked off the hull; cannot happen with the huge
			// super-triangle but fall back to scan for robustness.
			return t.scan(p)
		}
	}
}

func (t *triangulator) scan(p point) int32 {
	for i := int32(0); i < int32(len(t.dead)); i++ {
		if t.dead[i] {
			continue
		}
		v := t.vert[3*i : 3*i+3]
		a, b, c := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]]
		if orient2d(b, c, p) >= 0 && orient2d(c, a, p) >= 0 && orient2d(a, b, p) >= 0 {
			return i
		}
	}
	panic("gen: delaunay point outside triangulation")
}

// insert adds point index pi into the triangulation.
func (t *triangulator) insert(pi int32) {
	p := t.pts[pi]
	seed := t.locate(p)

	// Grow the cavity: all triangles whose circumcircle contains p.
	t.cavity = t.cavity[:0]
	t.boundary = t.boundary[:0]
	for k := range t.inCav {
		delete(t.inCav, k)
	}
	t.stack = append(t.stack[:0], seed)
	t.inCav[seed] = true
	for len(t.stack) > 0 {
		tri := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.cavity = append(t.cavity, tri)
		for e := 0; e < 3; e++ {
			nb := t.nbr[3*tri+int32(e)]
			if nb < 0 || t.inCav[nb] {
				continue
			}
			v := t.vert[3*nb : 3*nb+3]
			if inCircle(t.pts[v[0]], t.pts[v[1]], t.pts[v[2]], p) > 0 {
				t.inCav[nb] = true
				t.stack = append(t.stack, nb)
			}
		}
	}
	// Collect directed boundary edges. Edge e of tri connects the two
	// vertices other than vert[e], ordered so the cavity is on the left:
	// edge 0 = (v1,v2), edge 1 = (v2,v0), edge 2 = (v0,v1).
	for _, tri := range t.cavity {
		v := t.vert[3*tri : 3*tri+3]
		for e := 0; e < 3; e++ {
			nb := t.nbr[3*tri+int32(e)]
			if nb >= 0 && t.inCav[nb] {
				continue
			}
			var a, b int32
			switch e {
			case 0:
				a, b = v[1], v[2]
			case 1:
				a, b = v[2], v[0]
			default:
				a, b = v[0], v[1]
			}
			t.boundary = append(t.boundary, bEdge{a, b, nb})
		}
	}
	for _, tri := range t.cavity {
		t.dead[tri] = true
	}
	// Re-triangulate: one new triangle (pi, a, b) per boundary edge.
	// Vertex order (pi, a, b) is CCW because the cavity (hence pi) lies
	// left of the directed edge a->b. Edge 0 (opposite pi, connecting
	// a-b) faces the old outside triangle; edges 1 and 2 face sibling
	// new triangles, linked through a directed-edge map.
	for k := range t.edgeMap {
		delete(t.edgeMap, k)
	}
	first := int32(len(t.dead))
	for _, be := range t.boundary {
		id := t.addTriangle(pi, be.a, be.b, be.out, -1, -1)
		if be.out >= 0 {
			// Redirect the outside triangle's pointer across exactly
			// the shared edge {a,b} (an outside triangle can border
			// the cavity on two different edges).
			ov := t.vert[3*be.out : 3*be.out+3]
			for e := 0; e < 3; e++ {
				x, y := ov[(e+1)%3], ov[(e+2)%3]
				if (x == be.a && y == be.b) || (x == be.b && y == be.a) {
					t.nbr[3*be.out+int32(e)] = id
					break
				}
			}
		}
		// Register this triangle under its two pi-incident directed
		// edges as seen from the *sibling's* perspective: the sibling
		// that shares edge {pi,a} sees it as (a,pi) or (pi,a).
		t.edgeMap[edgeKey(pi, be.a)] = id
		t.edgeMap[edgeKey(be.b, pi)] = id
	}
	// Link sibling triangles around pi. For triangle (pi, a, b):
	// edge 1 (opposite a) connects b-pi and is shared with the sibling
	// whose boundary edge starts at b; that sibling registered key
	// (pi, b). Edge 2 (opposite b) connects pi-a, shared with the
	// sibling whose boundary edge ends at a; it registered key (a, pi).
	for id := first; id < int32(len(t.dead)); id++ {
		a := t.vert[3*id+1]
		b := t.vert[3*id+2]
		if sib, ok := t.edgeMap[edgeKey(pi, b)]; ok && sib != id {
			t.nbr[3*id+1] = sib
		}
		if sib, ok := t.edgeMap[edgeKey(a, pi)]; ok && sib != id {
			t.nbr[3*id+2] = sib
		}
	}
	t.last = first
}

func edgeKey(a, b int32) int64 {
	return int64(a)<<32 | int64(uint32(b))
}

// edges emits the final graph: all triangulation edges not incident to the
// super-triangle corners.
func (t *triangulator) edges() *graph.Graph {
	b := graph.NewBuilder(t.n)
	for tri := int32(0); tri < int32(len(t.dead)); tri++ {
		if t.dead[tri] {
			continue
		}
		v := t.vert[3*tri : 3*tri+3]
		for e := 0; e < 3; e++ {
			a, c := v[e], v[(e+1)%3]
			if a < t.n && c < t.n && a < c {
				b.AddEdge(a, c)
			}
		}
	}
	return b.Finish()
}
