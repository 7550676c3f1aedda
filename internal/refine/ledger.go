package refine

import (
	"errors"
	"fmt"
	"sync"

	"oms/internal/store"
)

// ErrNoVersion reports a result version that does not exist (never
// published, or not yet published). Its text keeps the service prefix
// it was served under, so 404 bodies stay byte-identical.
var ErrNoVersion = errors.New("service: no such result version")

// maxResidentVersions bounds how many versions keep their O(n) Parts
// slice in memory (the newest ones, plus the best). Older versions keep
// only their metadata row; Get reloads the assignment from the durable
// version file. Without a log nothing is pruned — there is no reload
// path, and storeless refinement already implies the session holds its
// O(n + m) record buffer.
const maxResidentVersions = 4

// VersionInfo is one row of the refine-status version listing.
type VersionInfo struct {
	Version int32 `json:"version"`
	Pass    int32 `json:"pass"`
	EdgeCut int64 `json:"edge_cut"`
}

// Ledger is one session's record of refined result versions: the
// one-pass baseline cut and the published versions, append-only and
// immutable once published. The single active refine job of the
// session is the only writer; readers (result serving, status) may run
// concurrently with it.
type Ledger struct {
	id  string
	log store.SessionLog // nil without a store

	mu       sync.RWMutex
	baseline *int64 // the one-pass result's measured cut, nil until known
	versions []store.RefinedVersion
}

// NewLedger returns the empty ledger of session id, persisting through
// log (nil keeps versions in memory only).
func NewLedger(id string, log store.SessionLog) *Ledger {
	return &Ledger{id: id, log: log}
}

// SetBaseline records the one-pass result's measured cut without
// persisting it: the finish summary of a recording session, which
// recovery recomputes.
func (l *Ledger) SetBaseline(cut int64) {
	l.mu.Lock()
	l.baseline = &cut
	l.mu.Unlock()
}

// Restore installs recovered versions (startup only, before the session
// is visible). The parts-free version-0 record carries the one-pass
// result's measured cut, so Best keeps comparing against it across
// restarts.
func (l *Ledger) Restore(vs []store.RefinedVersion) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, v := range vs {
		if v.Version == 0 {
			cut := v.EdgeCut
			l.baseline = &cut
			continue
		}
		l.versions = append(l.versions, v)
	}
	l.pruneLocked()
}

// Add publishes v: it saves v through the log first, so a version a
// client can read survives a crash, and only then makes it visible.
// Version 0 is the parts-free baseline record and sets Baseline; any
// other version is appended and must number one past Latest. On a
// failed save the ledger is unchanged.
func (l *Ledger) Add(v store.RefinedVersion) error {
	if l.log != nil {
		if err := l.log.SaveVersion(v); err != nil {
			return fmt.Errorf("persist version %d: %w", v.Version, err)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v.Version == 0 {
		cut := v.EdgeCut
		l.baseline = &cut
		return nil
	}
	l.versions = append(l.versions, v)
	l.pruneLocked()
	return nil
}

// pruneLocked drops cold versions' in-memory assignment, keeping the
// newest maxResidentVersions and the best version resident. Callers
// hold mu for writing.
func (l *Ledger) pruneLocked() {
	if l.log == nil || len(l.versions) <= maxResidentVersions {
		return
	}
	best := 0
	for i := range l.versions {
		if l.versions[i].EdgeCut < l.versions[best].EdgeCut {
			best = i
		}
	}
	for i := 0; i < len(l.versions)-maxResidentVersions; i++ {
		if i != best {
			l.versions[i].Parts = nil
		}
	}
}

// Baseline returns the one-pass result's measured cut, nil while it is
// unknown.
func (l *Ledger) Baseline() *int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.baseline
}

// Latest returns the number of the newest published version, 0 before
// the first.
func (l *Ledger) Latest() int32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if n := len(l.versions); n > 0 {
		return l.versions[n-1].Version
	}
	return 0
}

// Best returns the number of the lowest-cut version: the published
// version with the smallest cut, or 0 when none beats the baseline
// (ties go to the lower version — fewer passes for the same cut). The
// baseline competes only when it is known; with no published versions
// version 0 wins by default.
func (l *Ledger) Best() int32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	best, bestCut := int32(0), l.baseline
	for i := range l.versions {
		v := &l.versions[i]
		if bestCut == nil || v.EdgeCut < *bestCut {
			best, bestCut = v.Version, &v.EdgeCut
		}
	}
	return best
}

// List snapshots the published versions' metadata.
func (l *Ledger) List() []VersionInfo {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]VersionInfo, len(l.versions))
	for i, v := range l.versions {
		out[i] = VersionInfo{Version: v.Version, Pass: v.Pass, EdgeCut: v.EdgeCut}
	}
	return out
}

// Get returns published version n with its assignment, reloading a cold
// one whole through the log's LoadVersion. An unknown n wraps
// ErrNoVersion; any other error is the reload's.
func (l *Ledger) Get(n int32) (store.RefinedVersion, error) {
	l.mu.RLock()
	var v store.RefinedVersion
	found := false
	for i := range l.versions {
		if l.versions[i].Version == n {
			v, found = l.versions[i], true
			break
		}
	}
	l.mu.RUnlock()
	if !found {
		return v, fmt.Errorf("%w: version %d of session %s", ErrNoVersion, n, l.id)
	}
	if v.Parts == nil {
		loaded, err := l.log.LoadVersion(n)
		if err != nil {
			return store.RefinedVersion{}, fmt.Errorf("reload version %d of session %s: %w", n, l.id, err)
		}
		v.Parts = loaded.Parts
	}
	return v, nil
}
