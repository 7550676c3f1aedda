package oms_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"oms"
)

// TestThreadsIgnored: Options.Threads is accepted and ignored. Every
// pass assigns in stream order on one worker, so Partition, Map and the
// flat one-pass partitioners return, for every Threads, the Parts of
// Threads 0 bit for bit, over memory, a permuted order, a METIS file and
// a wire file; so do push sessions fed by PushBatch.
func TestThreadsIgnored(t *testing.T) {
	g := oms.GenRMATSocial(1<<12, 1<<15, 9827) // skewed, edge-weighted
	dir := t.TempDir()
	metis := filepath.Join(dir, "g.metis")
	if err := oms.WriteMetisFile(metis, g); err != nil {
		t.Fatal(err)
	}
	wire := filepath.Join(dir, "g.omsw")
	if err := oms.WriteWireFile(wire, g); err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		src  func() oms.Source
	}{
		{"memory", func() oms.Source { return oms.NewMemorySource(g) }},
		{"ordered", func() oms.Source { return oms.NewOrderedSource(g, oms.OrderRandom, 3) }},
		{"metis-file", func() oms.Source { return oms.NewDiskSource(metis) }},
		{"wire-file", func() oms.Source { return oms.NewWireSource(wire) }},
	}
	top := oms.MustTopology("4:8:2", "1:10:100")
	type run func(oms.Source, oms.Options) (*oms.Result, error)
	runs := map[string]run{
		"partition": func(src oms.Source, opt oms.Options) (*oms.Result, error) { return oms.Partition(src, 64, opt) },
		"map":       func(src oms.Source, opt oms.Options) (*oms.Result, error) { return oms.Map(src, top, opt) },
	}
	for _, sc := range []oms.Scorer{oms.ScorerFennel, oms.ScorerLDG, oms.ScorerHashing} {
		runs["onepass-"+sc.String()] = func(src oms.Source, opt oms.Options) (*oms.Result, error) {
			return oms.PartitionOnePass(src, 64, sc, opt)
		}
	}
	for _, s := range sources {
		for name, r := range runs {
			t.Run(s.name+"/"+name, func(t *testing.T) {
				var want []int32
				for _, threads := range []int{0, 1, 2, 8} {
					res, err := r(s.src(), oms.Options{Seed: 5, Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					if threads == 0 {
						want = res.Parts
						if err := res.CheckBalanced(g, oms.DefaultEpsilon); err != nil {
							t.Fatal(err)
						}
						continue
					}
					if !slices.Equal(res.Parts, want) {
						t.Fatalf("Threads %d: Parts differ from Threads 0", threads)
					}
				}
			})
		}
	}

	st := oms.StreamStats{
		N: g.NumNodes(), M: g.NumEdges(),
		TotalNodeWeight: g.TotalNodeWeight(), TotalEdgeWeight: g.TotalEdgeWeight(),
	}
	var want []int32
	for _, threads := range []int{0, 1, 2, 8} {
		t.Run(fmt.Sprintf("session/threads-%d", threads), func(t *testing.T) {
			s, err := oms.NewSession(oms.SessionConfig{Stats: st, K: 64, Options: oms.Options{Seed: 5, Threads: threads}})
			if err != nil {
				t.Fatal(err)
			}
			batchWhole(t, s, g, 256)
			res, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if threads == 0 {
				want = res.Parts
			} else if !slices.Equal(res.Parts, want) {
				t.Fatalf("Threads %d: Parts differ from Threads 0", threads)
			}
		})
	}
}
