package oms_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"oms"
)

// partsDigest is the SHA-256 of a partition vector, each block id as four
// little-endian bytes.
func partsDigest(parts []int32) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint32(b[:], uint32(p))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPartitionDigests pins the exact partition every public entry point
// returns at toy scale, so a change to both the walk and its oracle, to
// alpha, or to a tie-break cannot move an assignment unnoticed. The graphs
// carry unit weights. A change that moves output on purpose updates the
// digest it moves and names it as an intended output change.
func TestPartitionDigests(t *testing.T) {
	g := oms.GenDelaunay(3000, 5)
	top := oms.MustTopology("4:4:2", "1:10:100")
	const k = 24
	opt := oms.Options{Seed: 3}
	cases := []struct {
		name string
		run  func() (*oms.Result, error)
		want string
	}{
		{"Partition", func() (*oms.Result, error) { return oms.PartitionGraph(g, k, opt) }, "018d979a08afe6217d7b62d9a9e9c4fd14c92ed6284af4443fdf577f88e6dd74"},
		{"Map", func() (*oms.Result, error) { return oms.MapGraph(g, top, opt) }, "90bc8c02e42c086b95b7dcaaa848db9fcbe0deec00a4599ff224fc65ae2d9874"},
		{"PartitionOnePass/fennel", func() (*oms.Result, error) {
			return oms.PartitionOnePass(oms.NewMemorySource(g), k, oms.ScorerFennel, opt)
		}, "16060737cfd1a1dca44233c650cb663649a8410f5088ddf16dc8ef5b4ae3000c"},
		{"PartitionOnePass/ldg", func() (*oms.Result, error) {
			return oms.PartitionOnePass(oms.NewMemorySource(g), k, oms.ScorerLDG, opt)
		}, "ae0ad6e15642e96846b80c71936df4aac6adcaa1054ad4c088fafed669ee433c"},
		{"PartitionOnePass/hashing", func() (*oms.Result, error) {
			return oms.PartitionOnePass(oms.NewMemorySource(g), k, oms.ScorerHashing, opt)
		}, "2eabb53a1bfad85d73d5e131a67bc519c03dab95b8a306545aef6f248218c719"},
		{"Restream", func() (*oms.Result, error) { return oms.Restream(oms.NewMemorySource(g), 0, top, 2, opt) }, "fb8e18876db9bf62fa081be95555e640d6f4328e6db964e17bf56e1f07976df8"},
		{"MapOffline", func() (*oms.Result, error) { return oms.MapOffline(g, top, oms.OfflineMapOptions{Seed: 3}) }, "311900d5c3d0014eec15eb53b54b54f086f95b66109fb9b387af165731307653"},
		{"PartitionMultilevel", func() (*oms.Result, error) {
			return oms.PartitionMultilevel(g, k, oms.MultilevelOptions{Seed: 3})
		}, "098abdf6df8ce4e6c9c9d60c3ba554b1b2958cfa4cbd80ec5eba47209d650a79"},
		{"Session/adaptive-PushBatch", func() (*oms.Result, error) {
			s, err := oms.NewSession(oms.SessionConfig{K: k, Adaptive: true, Options: opt})
			if err != nil {
				return nil, err
			}
			var batch []oms.Node
			for u := int32(0); u < g.NumNodes(); u++ {
				batch = append(batch, oms.Node{U: u, W: g.NodeWeight(u), Adj: g.Neighbors(u), EW: g.EdgeWeights(u)})
				if len(batch) == 256 || u == g.NumNodes()-1 {
					if _, err := s.PushBatch(batch); err != nil {
						return nil, err
					}
					batch = batch[:0]
				}
			}
			return s.Finish()
		}, "dbd54fda0ec8f999441d0633f6e967d30dfa3bd020b3eb186ba4f263c077488f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := partsDigest(res.Parts); got != c.want {
				t.Errorf("digest %s, pinned %s", got, c.want)
			}
		})
	}
}
