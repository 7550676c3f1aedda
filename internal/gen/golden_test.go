package gen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"oms/internal/graph"
	"oms/internal/graphio"
	"oms/internal/util"
)

// csrDigest hashes the four CSR arrays of g. Each array is prefixed by
// its length, or -1 when nil, so a unit-weight graph (nil AdjWgt) and one
// whose weights happen to be all ones hash differently.
func csrDigest(g *graph.Graph) string {
	h := sha256.New()
	section := func(n int, isNil bool, data any) {
		l := int64(n)
		if isNil {
			l = -1
		}
		binary.Write(h, binary.LittleEndian, l)
		binary.Write(h, binary.LittleEndian, data)
	}
	section(len(g.Xadj), g.Xadj == nil, g.Xadj)
	section(len(g.Adjncy), g.Adjncy == nil, g.Adjncy)
	section(len(g.AdjWgt), g.AdjWgt == nil, g.AdjWgt)
	section(len(g.VWgt), g.VWgt == nil, g.VWgt)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGraphs are the pinned constructions: every generator at a fixed
// (size, seed), the benchmark workload shapes, FromAdjacency, a weighted
// Builder with duplicates, and the reader seeds under graphio's testdata.
var goldenGraphs = []struct {
	name  string
	build func(t *testing.T) *graph.Graph
	want  string
}{
	{"erdos-renyi/s1", func(*testing.T) *graph.Graph { return ErdosRenyi(3000, 12000, 1) }, "33b3d31bcfdaaa66e7332f1b8b618feb5606ea95a2402e1724f332003ab3e895"},
	{"erdos-renyi/s2", func(*testing.T) *graph.Graph { return ErdosRenyi(3000, 12000, 2) }, "f49caf29678267a606c2e6a038997b1f740100ef6e167ecd06647a681c2fd6ca"},
	{"rgg/s1", func(*testing.T) *graph.Graph { return RandomGeometric(3000, 0.55, 1) }, "30c272058924466a219bbbb197c21a5f20ec1c1c5caca9823e1c6947426b46a2"},
	{"rgg/s2", func(*testing.T) *graph.Graph { return RandomGeometric(3000, 0.55, 2) }, "2ba98bbce7223f49e2e49cf2430e9acee20eaab10f35e249da2dc83b6be0e375"},
	{"road/s1", func(*testing.T) *graph.Graph { return RoadLike(3000, 2.2, 1) }, "200a0560d6fbe6bbed174d2f45292f71cd32038c41d93245b978271a9337d7b8"},
	{"road/s2", func(*testing.T) *graph.Graph { return RoadLike(3000, 2.2, 2) }, "b7339c9b90b46cb7fc37229c249a0621653d4921b0c5c93800f24f8614706eb2"},
	{"delaunay/s1", func(*testing.T) *graph.Graph { return Delaunay(3000, 1) }, "ed64f3c52d69c909797617215e084b8ac311be69b5b9593f8a2d00dd58a9b69d"},
	{"delaunay/s2", func(*testing.T) *graph.Graph { return Delaunay(3000, 2) }, "bce7b2144e5ec15de5b8ca5d2997a525b30646030a6f2325c84f63a7ee8fbdfa"},
	{"grid2d", func(*testing.T) *graph.Graph { return Grid2D(37, 53, false) }, "7152486610351640eeac64a64bfe3349c713e1b2a912b7e98b2db6b4ce96353c"},
	{"grid2d-diag", func(*testing.T) *graph.Graph { return Grid2D(37, 53, true) }, "6abea9183798c9e3ac7d0c2ad8adcd4279f895dbda14149e8457276cf82902c0"},
	{"grid3d", func(*testing.T) *graph.Graph { return Grid3D(9, 11, 13) }, "2bc34b598b58f3920967abced698abd1e1aa6898b757fd389252e62f8117a90c"},
	{"rmat-social/s1", func(*testing.T) *graph.Graph { return RMAT(3000, 24000, SocialRMAT, 1) }, "23b11dfd54a6d318bc400085b055567d6cf9e8138c8734f1b28af712e921c26e"},
	{"rmat-social/s2", func(*testing.T) *graph.Graph { return RMAT(3000, 24000, SocialRMAT, 2) }, "266d7f172f709fe8fc34c86a0dad7d3070df22f87d8bc7d29f5c7011185be78c"},
	{"rmat-citation/s1", func(*testing.T) *graph.Graph { return RMAT(3000, 24000, CitationRMAT, 1) }, "b65ccfc27bb27a5729c38657cb8582b93af43e46865d634a98856cf015e38043"},
	{"barabasi-albert/s1", func(*testing.T) *graph.Graph { return BarabasiAlbert(3000, 4, 1) }, "0ed09508f5dbbd2aa4489ac3758c78c383bef8e38589da51099d5252115cb01e"},
	{"barabasi-albert/s2", func(*testing.T) *graph.Graph { return BarabasiAlbert(3000, 4, 2) }, "cf8aff458630ee9722081b1736703370df243856ad7f5ea9b813c994613ee2e7"},
	{"watts-strogatz/s1", func(*testing.T) *graph.Graph { return WattsStrogatz(3000, 3, 0.1, 1) }, "8e1167acd6116b0355b3746493b815c7e8ce2fee3feaa5fc9964aadf69f5c649"},
	{"watts-strogatz/s2", func(*testing.T) *graph.Graph { return WattsStrogatz(3000, 3, 0.1, 2) }, "e9335544166a46fc2d50bc41902b76c24fa892ac401208765bf0eb9e3c784958"},
	{"local-attach/s1", func(*testing.T) *graph.Graph { return LocalAttach(3000, 4, 64, 1) }, "809fbadbfcb33a362cf5c8831ee103479d8a587b5efea925d4c4f625f45ea666"},
	{"local-attach/s2", func(*testing.T) *graph.Graph { return LocalAttach(3000, 4, 64, 2) }, "07dec7bd58b356ee433ca1609415ad03163f78aaad556ddbfda4e6e1021cdfde"},

	// The benchmark workloads' graphs (RandomGeometric at factor 0.55,
	// social RMAT) at 1/64 of their node count, and svc_churn_ndjson_open's
	// 2^16-node RGG at full size: dense enough that many points share a
	// Morton cell, so the order among equal keys is pinned too.
	{"bench/part_rgg_k4096", func(*testing.T) *graph.Graph { return RandomGeometric(1<<13, 0.55, 5) }, "541a4d88109260d6258c10aca7223653e3644e8f092aeff094dfa99112407ee0"},
	{"bench/map_rmat_disk", func(*testing.T) *graph.Graph { return RMAT(1<<11, 1<<15, SocialRMAT, 5) }, "58ece47c70e3df9ae79ab2772e9241ee99661cc50891cab26b4354220b8cd53e"},
	{"bench/svc_wire_c64", func(*testing.T) *graph.Graph { return RandomGeometric(1<<11, 0.55, 5) }, "8c238e512f3b5ff4ff03c1b6159b67eb1397c09f125e200ff2911d5d6179d75b"},
	{"bench/svc_churn_ndjson_open", func(*testing.T) *graph.Graph { return RandomGeometric(1<<16, 0.55, 5) }, "257fb4d033bb4f06fd298653ac0b3a82be0cb132f3944bfffcd9935ec8f3a8da"},

	{"from-adjacency", func(*testing.T) *graph.Graph {
		return graph.FromAdjacency([][]int32{{1, 2, 2, 5}, {0, 3}, {0}, {1, 3, 4}, {}, {0, 4}, {}})
	}, "a09c5fe9ace6093ec92443c2ab72c69f97bf742d64eec063ac0afdd11c5ee712"},
	{"from-adjacency/random", func(*testing.T) *graph.Graph {
		rng := util.NewRNG(7)
		lists := make([][]int32, 500)
		for u := range lists {
			for d := rng.Intn(12); d > 0; d-- {
				lists[u] = append(lists[u], int32(rng.Intn(len(lists))))
			}
		}
		return graph.FromAdjacency(lists)
	}, "aa8599044e38a3ec972916fd1d0f7d924864076765e49f26edd2e76c25a6993d"},
	{"builder/weighted-dups", func(*testing.T) *graph.Graph {
		rng := util.NewRNG(11)
		b := graph.NewBuilder(400)
		for i := 0; i < 3000; i++ {
			b.AddWeightedEdge(int32(rng.Intn(400)), int32(rng.Intn(400)), int32(1+rng.Intn(5)))
		}
		for u := int32(0); u < 400; u += 3 {
			b.SetNodeWeight(u, u%7)
		}
		return b.Finish()
	}, "45ebd9dd74d3817d2bfb6b9999ceee66d9e95bf74321900de49518ebb17adeed"},

	{"graphio/FuzzReadMetis/weighted", readCorpus, "67b399e7114e49153652faa1deea5da12fed7c5dba19feeb8c90be8f63a9941e"},
	{"graphio/FuzzReadMetis/blank-lines", readCorpus, "fb974457be2fe21d3e73ef4e6cc88f03e5d222012c95cff5ded3cb7bf1461073"},
	{"graphio/FuzzReadEdgeList/weighted-dups", readCorpus, "96c940a5d481c818a12de7477791f466c7ac34521928bde7ed84f0e15079e071"},
}

// readCorpus reads the graphio fuzz seed named by the running subtest
// with the reader its fuzz target drives.
func readCorpus(t *testing.T) *graph.Graph {
	_, file, _ := strings.Cut(t.Name(), "/graphio/")
	raw, err := os.ReadFile(filepath.Join("..", "graphio", "testdata", "fuzz", filepath.FromSlash(file)))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	data, err := strconv.Unquote(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(lit), ")")))
	if err != nil {
		t.Fatalf("corpus %s: %v", file, err)
	}
	var g *graph.Graph
	if strings.HasPrefix(file, "FuzzReadMetis/") {
		g, err = graphio.ReadMetis(bytes.NewReader([]byte(data)))
	} else {
		g, _, err = graphio.ReadEdgeList(bytes.NewReader([]byte(data)))
	}
	if err != nil {
		t.Fatalf("corpus %s: %v", file, err)
	}
	return g
}

// TestGoldenDigests pins the exact CSR arrays every construction route
// produces, so a change to the builder or a generator cannot renumber
// nodes, reorder adjacency or drop a weight array without failing here:
// a seed names the same graph across commits.
func TestGoldenDigests(t *testing.T) {
	for _, c := range goldenGraphs {
		t.Run(c.name, func(t *testing.T) {
			g := c.build(t)
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := csrDigest(g); got != c.want {
				t.Errorf("digest %s, pinned %s", got, c.want)
			}
		})
	}
}
