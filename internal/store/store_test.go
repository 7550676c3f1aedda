package store

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"oms"
)

// TestSessionConfig holds the translation of a create spec into an
// engine config: scorer names, k or a topology, the default and
// explicit distances, the options that pass through unchanged, and a
// persisted spec.json that still carries "threads" or "gamma".
func TestSessionConfig(t *testing.T) {
	decode := func(js string) (cs CreateSpec) {
		if err := json.Unmarshal([]byte(js), &cs); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	levels := func(l int) string { return strings.Repeat("2:", l-1) + "2" }
	powers := func(l int) []float64 {
		d := make([]float64, l)
		for i := range d {
			d[i] = math.Pow10(i)
		}
		return d
	}
	for _, tc := range []struct {
		name    string
		spec    CreateSpec
		wantErr string // substring of the error; "" for success
		check   func(oms.SessionConfig) bool
	}{
		{name: "scorer/default", spec: CreateSpec{N: 10, K: 2},
			check: func(c oms.SessionConfig) bool { return c.Options.Scorer == oms.ScorerFennel }},
		{name: "scorer/FENNEL", spec: CreateSpec{N: 10, K: 2, Scorer: "FENNEL"},
			check: func(c oms.SessionConfig) bool { return c.Options.Scorer == oms.ScorerFennel }},
		{name: "scorer/Ldg", spec: CreateSpec{N: 10, K: 2, Scorer: "Ldg"},
			check: func(c oms.SessionConfig) bool { return c.Options.Scorer == oms.ScorerLDG }},
		{name: "scorer/hAsHiNg", spec: CreateSpec{N: 10, K: 2, Scorer: "hAsHiNg"},
			check: func(c oms.SessionConfig) bool { return c.Options.Scorer == oms.ScorerHashing }},
		{name: "scorer/unknown", spec: CreateSpec{N: 10, K: 2, Scorer: "metis"},
			wantErr: `service: unknown scorer "metis"`},
		{name: "k-and-topology", spec: CreateSpec{N: 10, K: 4, Topology: "2:2"},
			wantErr: "service: declare either k or a topology, not both"},
		{name: "neither-k-nor-topology", spec: CreateSpec{N: 10},
			wantErr: "service: k 0 < 1 and no topology given"},
		{name: "k", spec: CreateSpec{N: 10, M: 5, K: 3},
			check: func(c oms.SessionConfig) bool {
				return c.K == 3 && c.Topology == nil && c.Stats == oms.StreamStats{N: 10, M: 5}
			}},
		{name: "default-distances/3-levels", spec: CreateSpec{N: 10, Topology: "4:16:8"},
			check: func(c oms.SessionConfig) bool {
				return c.K == 0 && slices.Equal(c.Topology.Dist.D, []float64{1, 10, 100})
			}},
		// 10^19 and 10^20 overflow an int64.
		{name: "default-distances/20-levels", spec: CreateSpec{N: 10, Topology: levels(20)},
			check: func(c oms.SessionConfig) bool { return slices.Equal(c.Topology.Dist.D, powers(20)) }},
		{name: "default-distances/21-levels", spec: CreateSpec{N: 10, Topology: levels(21)},
			check: func(c oms.SessionConfig) bool { return slices.Equal(c.Topology.Dist.D, powers(21)) }},
		{name: "explicit-distances", spec: CreateSpec{N: 10, Topology: "4:16:8", Distances: "1:5:25"},
			check: func(c oms.SessionConfig) bool { return slices.Equal(c.Topology.Dist.D, []float64{1, 5, 25}) }},
		{name: "explicit-distances/wrong-count", spec: CreateSpec{N: 10, Topology: "4:16:8", Distances: "1:5"},
			wantErr: "hierarchy: 2 distances for 3 levels"},
		{name: "pass-through", spec: CreateSpec{N: 10, K: 2, Adaptive: true, AdaptiveHeadroom: 0.25, Record: true, Seed: 42,
			TotalNodeWeight: 11, TotalEdgeWeight: 7, Epsilon: 0.1, Base: 4, HashLayers: 1, VanillaAlpha: true},
			check: func(c oms.SessionConfig) bool {
				o := c.Options
				return c.Adaptive && c.AdaptiveHeadroom == 0.25 && c.Record && o.Seed == 42 &&
					c.Stats.TotalNodeWeight == 11 && c.Stats.TotalEdgeWeight == 7 &&
					o.Epsilon == 0.1 && o.Base == 4 && o.HashLayers == 1 && o.VanillaAlpha
			}},
		{name: "spec.json-with-threads", spec: decode(`{"n":10,"m":5,"k":2,"threads":4}`),
			check: func(c oms.SessionConfig) bool { return c.K == 2 && c.Stats == oms.StreamStats{N: 10, M: 5} }},
		{name: "spec.json-with-gamma-1.5", spec: decode(`{"n":10,"m":5,"k":2,"gamma":1.5}`),
			check: func(c oms.SessionConfig) bool {
				want, err := decode(`{"n":10,"m":5,"k":2}`).SessionConfig()
				return err == nil && reflect.DeepEqual(c, want)
			}},
		{name: "spec.json-with-gamma-2", spec: decode(`{"n":10,"m":5,"k":2,"gamma":2}`),
			wantErr: "service: Fennel gamma 2 not supported"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := tc.spec.SessionConfig()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tc.check(cfg) {
				t.Fatalf("config %+v does not match the spec %+v", cfg, tc.spec)
			}
		})
	}
}
