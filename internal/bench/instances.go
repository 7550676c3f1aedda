// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§4): the Table 1 instance
// registry (synthetic, family-matched stand-ins for the SNAP/DIMACS
// downloads, see DESIGN.md §5), timing and quality runners for all
// algorithms, performance profiles, the scalability sweeps, the tuning
// ablations, and the memory measurements.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"oms/internal/gen"
	"oms/internal/graph"
)

// Family labels instances by structure; it decides which generator stands
// in for the original download.
type Family string

// Instance families of Table 1.
const (
	FamMesh       Family = "Meshes"
	FamCircuit    Family = "Circuit"
	FamCitation   Family = "Citations"
	FamWeb        Family = "Web"
	FamSimilarity Family = "Similarity"
	FamRoad       Family = "Roads"
	FamSocial     Family = "Social"
	FamArtificial Family = "Artificial"
)

// Instance is one Table 1 row: the original graph's name, size and
// family, plus the seeded generator producing its synthetic stand-in.
type Instance struct {
	Name   string
	N      int32 // original node count (scale 1.0)
	M      int64 // original undirected edge count
	Family Family
	Seed   uint64
}

// Table1 lists the paper's 26 benchmark graphs in its order.
var Table1 = []Instance{
	{"Dubcova1", 16129, 118440, FamMesh, 101},
	{"hcircuit", 105676, 203734, FamCircuit, 102},
	{"coAuthorsDBLP", 299067, 977676, FamCitation, 103},
	{"Web-NotreDame", 325729, 1090108, FamWeb, 104},
	{"Dblp-2010", 326186, 807700, FamCitation, 105},
	{"ML_Laplace", 377002, 13656485, FamMesh, 106},
	{"coPapersCiteseer", 434102, 16036720, FamCitation, 107},
	{"coPapersDBLP", 540486, 15245729, FamCitation, 108},
	{"Amazon-2008", 735323, 3523472, FamSimilarity, 109},
	{"eu-2005", 862664, 16138468, FamWeb, 110},
	{"web-Google", 916428, 4322051, FamWeb, 111},
	{"ca-hollywood-2009", 1087562, 1541514, FamRoad, 112},
	{"Flan_1565", 1564794, 57920625, FamMesh, 113},
	{"Ljournal-2008", 1957027, 2760388, FamSocial, 114},
	{"HV15R", 2017169, 162357569, FamMesh, 115},
	{"Bump_2911", 2911419, 62409240, FamMesh, 116},
	{"del21", 2097152, 6291408, FamArtificial, 117},
	{"rgg21", 2097152, 14487995, FamArtificial, 118},
	{"FullChip", 2987012, 11817567, FamCircuit, 119},
	{"soc-orkut-dir", 3072441, 117185083, FamSocial, 120},
	{"patents", 3750822, 14970766, FamCitation, 121},
	{"cit-Patents", 3774768, 16518947, FamCitation, 122},
	{"soc-LiveJournal1", 4847571, 42851237, FamSocial, 123},
	{"circuit5M", 5558326, 26983926, FamCircuit, 124},
	{"italy-osm", 6686493, 7013978, FamRoad, 125},
	{"great-britain-osm", 7733822, 8156517, FamRoad, 126},
}

// ScalabilitySet returns the instances the paper's §4.2 uses: the Test
// Set graphs with at least two million nodes.
func ScalabilitySet() []Instance {
	var out []Instance
	for _, ins := range Table1 {
		if ins.N >= 2000000 {
			out = append(out, ins)
		}
	}
	return out
}

// ByName returns the registered instance with the given name.
func ByName(name string) (Instance, error) {
	for _, ins := range Table1 {
		if ins.Name == name {
			return ins, nil
		}
	}
	return Instance{}, fmt.Errorf("bench: unknown instance %q", name)
}

// Build materializes the instance's synthetic stand-in at the given
// scale: node and edge counts shrink proportionally (scale 1.0 matches
// the original sizes; the floor of 1000 nodes keeps tiny scales
// meaningful). Generators are matched by family so the degree
// distribution, density, and stream locality resemble the original; see
// DESIGN.md §5 for the substitution argument.
func (ins Instance) Build(scale float64) *graph.Graph {
	n := int32(math.Round(float64(ins.N) * scale))
	if n < 1000 {
		n = 1000
	}
	m := int64(math.Round(float64(ins.M) * scale))
	minM := int64(2 * n)
	if m < minM {
		m = minM
	}
	avgDeg := 2 * float64(m) / float64(n)
	switch ins.Family {
	case FamMesh:
		if avgDeg <= 8 {
			return gen.Delaunay(n, ins.Seed)
		}
		// Dense FEM meshes (ML_Laplace ~72, HV15R ~161 average degree):
		// geometric locality with the radius meeting the degree target.
		rf := math.Sqrt(avgDeg / (math.Pi * math.Log(float64(n))))
		return gen.RandomGeometric(n, rf, ins.Seed)
	case FamArtificial:
		if ins.Name == "del21" {
			return gen.Delaunay(n, ins.Seed)
		}
		return gen.RandomGeometric(n, 0.55, ins.Seed)
	case FamCircuit:
		kHalf := int32(math.Round(avgDeg / 2))
		if kHalf < 1 {
			kHalf = 1
		}
		return gen.WattsStrogatz(n, kHalf, 0.1, ins.Seed)
	case FamRoad:
		return gen.RoadLike(n, avgDeg, ins.Seed)
	case FamSocial, FamWeb:
		return gen.RMAT(n, m, gen.SocialRMAT, ins.Seed)
	case FamCitation, FamSimilarity:
		return gen.RMAT(n, m, gen.CitationRMAT, ins.Seed)
	default:
		return gen.ErdosRenyi(n, m, ins.Seed)
	}
}

// cache memoizes built instances so a sweep over many k values builds
// each graph once.
var cache sync.Map // key string -> *graph.Graph

// BuildCached is Build with memoization on (name, scale).
func (ins Instance) BuildCached(scale float64) *graph.Graph {
	key := fmt.Sprintf("%s@%g", ins.Name, scale)
	if g, ok := cache.Load(key); ok {
		return g.(*graph.Graph)
	}
	g := ins.Build(scale)
	cache.Store(key, g)
	return g
}

// Subset resolves a comma-free list of instance names, or all of Table 1
// when names is empty.
func Subset(names []string) ([]Instance, error) {
	if len(names) == 0 {
		return Table1, nil
	}
	out := make([]Instance, 0, len(names))
	for _, n := range names {
		ins, err := ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, ins)
	}
	return out, nil
}

// SortedNames returns all registered instance names, sorted.
func SortedNames() []string {
	names := make([]string, len(Table1))
	for i, ins := range Table1 {
		names[i] = ins.Name
	}
	sort.Strings(names)
	return names
}
