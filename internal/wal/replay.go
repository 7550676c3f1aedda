package wal

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"oms"
	"oms/internal/store"
	"oms/internal/stream"
)

// ReplaySource is a restartable stream.Source over one session's durable
// record log: every ForEach walk re-reads the logged node and batch
// frames from disk in append order — the exact stream the session
// ingested, replayable as many times as a restreaming pass wants it,
// without holding the O(n + m) stream in memory. It reads only the
// prefix validated at open time, so a torn tail (or, defensively, bytes
// appended later) never reaches the visitor, and a pass that cannot
// reach that prefix's end fails.
type ReplaySource struct {
	path  string
	stats stream.Stats
	end   int64 // validated byte end at open time
}

// ReplaySource opens a read-only replay of the session's log. The log
// should be sealed (the refinement service only replays finished
// sessions); an unsealed log replays its currently durable prefix.
func (st *Store) ReplaySource(id string) (oms.Source, error) {
	dir := filepath.Join(st.dir, id)
	env, err := readSpec(dir)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logName)
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	_, _, end, err := walkLog(f, nil)
	f.Close()
	if err != nil {
		return nil, err
	}
	spec := env.Spec
	stats := stream.Stats{
		N:               spec.N,
		M:               spec.M,
		TotalNodeWeight: spec.TotalNodeWeight,
		TotalEdgeWeight: spec.TotalEdgeWeight,
	}
	if stats.TotalNodeWeight == 0 {
		stats.TotalNodeWeight = int64(spec.N)
	}
	if stats.TotalEdgeWeight == 0 {
		stats.TotalEdgeWeight = spec.M
	}
	return &ReplaySource{path: logPath, stats: stats, end: end}, nil
}

// Stats implements stream.Source with the declared stream quantities
// from the persisted session spec.
func (r *ReplaySource) Stats() (stream.Stats, error) { return r.stats, nil }

// ForEach implements stream.Source: one sequential pass over the logged
// records in append order. Batch frames yield their nodes one by one;
// the recorded block of a batch sub-record is irrelevant here (replay
// for refinement re-scores every node anyway).
//
// Duplicate records are collapsed to their first occurrence: a batch
// that repeated a node (or a client retry overlapping earlier ingest)
// logs the node more than once, and while engine replay is idempotent
// against that, stream consumers like cut measurement are not — a
// duplicate visited twice would double-count cut edges.
// First-occurrence-wins is exactly the engine's own push semantics.
func (r *ReplaySource) ForEach(fn stream.Visitor) error {
	f, err := os.Open(r.path)
	if err != nil {
		return err
	}
	defer f.Close()
	seen := r.newSeen()
	_, _, end, err := walkLog(io.NewSectionReader(f, 0, r.end), func(u, w int32, adj, ew []int32, _ int32) error {
		if !seen(u) {
			fn(u, w, adj, ew)
		}
		return nil
	})
	if err == nil && end != r.end {
		err = fmt.Errorf("wal: log ends after %d of %d validated bytes", end, r.end)
	}
	return err
}

// newSeen returns a first-occurrence filter for one pass. Adaptive
// sessions declare no n, so the filter grows with the ids actually
// logged instead of sizing itself from the spec.
func (r *ReplaySource) newSeen() func(int32) bool {
	seen := make([]bool, r.stats.N)
	return func(u int32) bool {
		if u < 0 {
			return true
		}
		if int(u) >= len(seen) {
			grown := make([]bool, max(int(u)+1, 2*len(seen), 1024))
			copy(grown, seen)
			seen = grown
		}
		if seen[u] {
			return true
		}
		seen[u] = true
		return false
	}
}

// readSpec loads and validates a session directory's spec envelope.
func readSpec(dir string) (specEnvelope, error) {
	var env specEnvelope
	sb, err := os.ReadFile(filepath.Join(dir, specName))
	if err != nil {
		return env, err
	}
	if err := json.Unmarshal(sb, &env); err != nil {
		return env, fmt.Errorf("corrupt spec: %w", err)
	}
	return env, nil
}

var _ oms.Source = (*ReplaySource)(nil)
var _ store.Store = (*Store)(nil)
