package refine

import (
	"errors"
	"io/fs"
	"slices"
	"testing"

	"oms/internal/store"
)

// fakeLog is a SessionLog that keeps saved versions in a map; only the
// version side-store is implemented.
type fakeLog struct {
	store.SessionLog
	saved   map[int32]store.RefinedVersion
	loads   []int32
	saveErr error
}

func (l *fakeLog) SaveVersion(v store.RefinedVersion) error {
	if l.saveErr != nil {
		return l.saveErr
	}
	if l.saved == nil {
		l.saved = map[int32]store.RefinedVersion{}
	}
	l.saved[v.Version] = v
	return nil
}

func (l *fakeLog) LoadVersion(n int32) (store.RefinedVersion, error) {
	l.loads = append(l.loads, n)
	v, ok := l.saved[n]
	if !ok {
		return store.RefinedVersion{}, fs.ErrNotExist
	}
	return v, nil
}

// addCuts publishes one version per cut, numbered from 1, each with a
// one-node assignment naming its version.
func addCuts(t *testing.T, l *Ledger, cuts ...int64) {
	t.Helper()
	for _, c := range cuts {
		n := l.Latest() + 1
		if err := l.Add(store.RefinedVersion{Version: n, Pass: n, EdgeCut: c, Parts: []int32{n}}); err != nil {
			t.Fatal(err)
		}
	}
}

// resident lists the versions whose assignment is held in memory.
func resident(l *Ledger) []int32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []int32
	for _, v := range l.versions {
		if v.Parts != nil {
			out = append(out, v.Version)
		}
	}
	return out
}

func TestLedgerPrunesAndReloads(t *testing.T) {
	lg := &fakeLog{}
	l := NewLedger("s1", lg)
	addCuts(t, l, 10, 50, 40, 30, 20, 15) // version 1 is best
	if got, want := resident(l), []int32{1, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("resident versions %v, want %v", got, want)
	}
	v, err := l.Get(1)
	if err != nil || v.Parts[0] != 1 || len(lg.loads) != 0 {
		t.Fatalf("Get(1) = %+v, %v with loads %v; want resident version 1", v, err, lg.loads)
	}
	v, err = l.Get(2)
	if err != nil || v.Parts[0] != 2 || v.EdgeCut != 50 || !slices.Equal(lg.loads, []int32{2}) {
		t.Fatalf("Get(2) = %+v, %v with loads %v; want version 2 reloaded", v, err, lg.loads)
	}
	if got := resident(l); len(got) != 5 {
		t.Fatalf("a reload made version 2 resident again: %v", got)
	}
	if _, err := l.Get(7); !errors.Is(err, ErrNoVersion) || err.Error() != "service: no such result version: version 7 of session s1" {
		t.Fatalf("Get(7): %v", err)
	}

	delete(lg.saved, 2) // the store lost version 2's file
	if _, err := l.Get(2); !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrNoVersion) {
		t.Fatalf("failed reload: %v, want the reload's error, not ErrNoVersion", err)
	}
}

func TestLedgerWithoutLogKeepsEverything(t *testing.T) {
	l := NewLedger("s1", nil)
	addCuts(t, l, 10, 50, 40, 30, 20, 15)
	if got := resident(l); len(got) != 6 {
		t.Fatalf("resident versions %v, want all 6", got)
	}
	if v, err := l.Get(2); err != nil || v.Parts[0] != 2 {
		t.Fatalf("Get(2) = %+v, %v", v, err)
	}
}

func TestLedgerBest(t *testing.T) {
	l := NewLedger("s1", nil)
	if got := l.Best(); got != 0 {
		t.Fatalf("empty ledger best %d, want 0", got)
	}
	// With no baseline the first version wins, whatever its cut.
	addCuts(t, l, 30)
	if got := l.Best(); got != 1 {
		t.Fatalf("no baseline: best %d, want 1", got)
	}
	// Ties go to the lower version.
	addCuts(t, l, 20, 20)
	if got := l.Best(); got != 2 {
		t.Fatalf("tie: best %d, want 2", got)
	}
	// A baseline that no version beats wins, ties included.
	l.SetBaseline(20)
	if got := l.Best(); got != 0 {
		t.Fatalf("baseline 20: best %d, want 0", got)
	}
	l.SetBaseline(25)
	if got := l.Best(); got != 2 {
		t.Fatalf("baseline 25: best %d, want 2", got)
	}
	if got := l.Latest(); got != 3 {
		t.Fatalf("latest %d, want 3", got)
	}
}

func TestLedgerRestore(t *testing.T) {
	lg := &fakeLog{saved: map[int32]store.RefinedVersion{2: {Version: 2, Pass: 4, EdgeCut: 7, Parts: []int32{2}}}}
	l := NewLedger("s1", lg)
	l.Restore([]store.RefinedVersion{
		{Version: 0, EdgeCut: 12},
		{Version: 1, Pass: 2, EdgeCut: 9},
		{Version: 2, Pass: 4, EdgeCut: 7},
	})
	if b := l.Baseline(); b == nil || *b != 12 {
		t.Fatalf("baseline %v, want 12", b)
	}
	want := []VersionInfo{{Version: 1, Pass: 2, EdgeCut: 9}, {Version: 2, Pass: 4, EdgeCut: 7}}
	if got := l.List(); !slices.Equal(got, want) {
		t.Fatalf("list %+v, want %+v", got, want)
	}
	if l.Latest() != 2 || l.Best() != 2 {
		t.Fatalf("latest %d best %d, want 2 and 2", l.Latest(), l.Best())
	}
	// Recovered versions are metadata only: a read reloads them.
	if v, err := l.Get(2); err != nil || v.Parts[0] != 2 || !slices.Equal(lg.loads, []int32{2}) {
		t.Fatalf("Get(2) = %+v, %v with loads %v", v, err, lg.loads)
	}
}

func TestLedgerFailedSaveChangesNothing(t *testing.T) {
	boom := errors.New("disk full")
	lg := &fakeLog{}
	l := NewLedger("s1", lg)
	addCuts(t, l, 10)
	lg.saveErr = boom
	if err := l.Add(store.RefinedVersion{Version: 0, EdgeCut: 5}); !errors.Is(err, boom) {
		t.Fatalf("baseline add: %v, want %v", err, boom)
	}
	if err := l.Add(store.RefinedVersion{Version: 2, Pass: 2, EdgeCut: 3, Parts: []int32{2}}); !errors.Is(err, boom) {
		t.Fatalf("version add: %v, want %v", err, boom)
	}
	if l.Baseline() != nil || l.Latest() != 1 || len(l.List()) != 1 || l.Best() != 1 {
		t.Fatalf("failed saves changed the ledger: baseline %v latest %d list %v", l.Baseline(), l.Latest(), l.List())
	}
	lg.saveErr = nil
	if err := l.Add(store.RefinedVersion{Version: 0, EdgeCut: 5}); err != nil {
		t.Fatal(err)
	}
	if b := l.Baseline(); b == nil || *b != 5 || l.Best() != 0 {
		t.Fatalf("baseline %v best %d after saving version 0", b, l.Best())
	}
	if _, ok := lg.saved[0]; !ok {
		t.Fatal("version 0 was not saved through the log")
	}
}
