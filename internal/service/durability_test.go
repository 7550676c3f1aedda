package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"oms/internal/store"
	"slices"
	"sync"
	"testing"
	"time"

	"oms"
	"oms/internal/wire"
)

// faultLog is a SessionLog with switchable failures, for exercising the
// wal-fault handling without a disk. It holds the log's side of the
// frame contract: a node without a whole, checksummed frame is refused.
type faultLog struct {
	failAppend bool
	failFlush  bool
	failSeal   bool
	frames     [][]byte // every node frame appended, copied
	appended   int
	batches    int
	flushes    int
	sealed     bool
}

var errDisk = errors.New("boom: disk fault")

func (l *faultLog) AppendNodeFrame(frame []byte) error {
	if l.failAppend {
		return errDisk
	}
	if _, err := wire.VerifyFrame(frame); err != nil {
		return fmt.Errorf("node frame: %w", err)
	}
	l.frames = append(l.frames, bytes.Clone(frame))
	l.appended++
	return nil
}

func (l *faultLog) AppendBatch(nodes []store.PushNode, blocks []int32) error {
	if l.failAppend {
		return errDisk
	}
	for i := range nodes {
		if err := l.AppendNodeFrame(nodes[i].Frame); err != nil {
			return err
		}
	}
	l.batches++
	return nil
}

func (l *faultLog) Flush() error {
	l.flushes++
	if l.failFlush {
		return errDisk
	}
	return nil
}

func (l *faultLog) Seal() error {
	if l.failSeal {
		return errDisk
	}
	l.sealed = true
	return nil
}

func (l *faultLog) SaveVersion(v store.RefinedVersion) error { return nil }

func (l *faultLog) LoadVersion(version int32) (store.RefinedVersion, error) {
	return store.RefinedVersion{}, errDisk
}

func (l *faultLog) Close() error { return nil }

// parkLog is a faultLog whose Flush reports on parked and then waits
// for release to close: a job stalled on a slow disk, holding its slot.
type parkLog struct {
	faultLog
	parked  chan struct{}
	release chan struct{}
}

func (l *parkLog) Flush() error {
	l.parked <- struct{}{}
	<-l.release
	return l.faultLog.Flush()
}

// faultStore hands every session the same log.
type faultStore struct {
	log store.SessionLog
	// barrier, when set, blocks Create until it has been entered by
	// two callers (forcing two creates into the post-persist admission
	// race).
	barrier *sync.WaitGroup

	mu      sync.Mutex
	removed []string
}

func (s *faultStore) Create(id string, spec store.CreateSpec) (store.SessionLog, error) {
	if s.barrier != nil {
		s.barrier.Done()
		s.barrier.Wait()
	}
	return s.log, nil
}

func (s *faultStore) Recover() ([]store.RecoveredSession, error) { return nil, nil }

func (s *faultStore) ReplaySource(id string) (oms.Source, error) {
	return nil, errDisk
}

func (s *faultStore) Remove(id string) error {
	s.mu.Lock()
	s.removed = append(s.removed, id)
	s.mu.Unlock()
	return nil
}

func (s *faultStore) removedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.removed)
}

// TestWALFaultKillsSession: an append failure fails the chunk with a
// durability error and the session becomes gone — a retrying client
// cannot pin it alive, and no push is ever acknowledged unlogged.
func TestWALFaultKillsSession(t *testing.T) {
	fl := &faultLog{failAppend: true}
	mgr := testManager(t, Config{Store: &faultStore{log: fl}})
	s, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Ingest(context.Background(), mgr.Pool(), pathNodes(2))
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest after append fault: %v, want ErrDurability", err)
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrGone) {
		t.Fatalf("get after wal fault: %v, want ErrGone", err)
	}
}

// TestFlushFaultFailsChunkEvenAfterRejection: the per-chunk flush runs
// even when the chunk ends in an engine rejection, so the accepted
// prefix of the chunk is never acknowledged un-flushed.
func TestFlushFaultFailsChunkEvenAfterRejection(t *testing.T) {
	fl := &faultLog{failFlush: true}
	mgr := testManager(t, Config{Store: &faultStore{log: fl}})
	s, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 is accepted (and logged), node 99 rejected; the flush
	// fault must still surface and void the chunk's acks.
	nodes := framed(store.PushNode{U: 0, Adj: []int32{1}}, store.PushNode{U: 99})
	blocks, err := s.Ingest(context.Background(), mgr.Pool(), nodes)
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("ingest with flush fault: %v, want ErrDurability", err)
	}
	if len(blocks) != 0 {
		t.Fatalf("chunk acked %d assignments despite failed flush", len(blocks))
	}
	if fl.appended != 1 {
		t.Fatalf("logged %d records, want 1 (the accepted prefix)", fl.appended)
	}
}

// TestIngestLogsExactlyWhatItAcks holds the two routes to one rule on
// the corners where their old bodies differed: a job that assigned a
// node for the first time logs every node it acknowledges, once and in
// order — on /nodes too when the chunk overlaps earlier ingest — and a
// job that assigned nothing new touches neither the log nor the disk.
func TestIngestLogsExactlyWhatItAcks(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name        string
		batch       bool
		earlier     int // leading nodes of the chunk pushed by an earlier job
		nodes       []store.PushNode
		wantErr     bool
		acked       int // assignments returned
		appended    int // node records logged
		wantFlushes int
	}{
		// Node 2 is out of range: /nodes keeps the prefix before it...
		{name: "nodes/rejection-mid-chunk", nodes: framed(store.PushNode{U: 0, Adj: []int32{1}}, store.PushNode{U: 1, Adj: []int32{0}}, store.PushNode{U: 99}, store.PushNode{U: 3}),
			wantErr: true, acked: 2, appended: 2, wantFlushes: 1},
		// ...and /batch, admitted atomically, applies and logs nothing.
		{name: "batch/rejected", batch: true, nodes: framed(store.PushNode{U: 0, Adj: []int32{1}}, store.PushNode{U: 99}),
			wantErr: true},
		{name: "nodes/accepted", nodes: pathNodes(4), acked: 4, appended: 4, wantFlushes: 1},
		{name: "batch/accepted", batch: true, nodes: pathNodes(4), acked: 4, appended: 4, wantFlushes: 1},
		// A chunk that re-sends two nodes of an earlier one logs its whole
		// acknowledged prefix once, duplicates included, as /batch does.
		{name: "nodes/overlapping-earlier-ingest", earlier: 2, nodes: pathNodes(4), acked: 4, appended: 4, wantFlushes: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fl := &faultLog{}
			mgr := testManager(t, Config{Store: &faultStore{log: fl}})
			s, err := mgr.Create(pathSpec(4, 2))
			if err != nil {
				t.Fatal(err)
			}
			if tc.earlier > 0 {
				if _, err := s.Ingest(ctx, mgr.Pool(), tc.nodes[:tc.earlier]); err != nil {
					t.Fatal(err)
				}
				*fl = faultLog{}
			}
			push := s.Ingest
			if tc.batch {
				push = s.IngestBatch
			}
			blocks, err := push(ctx, mgr.Pool(), tc.nodes)
			if (err != nil) != tc.wantErr || len(blocks) != tc.acked {
				t.Fatalf("acked %d assignments, err %v; want %d, error=%v", len(blocks), err, tc.acked, tc.wantErr)
			}
			if fl.appended != tc.appended || fl.flushes != tc.wantFlushes {
				t.Fatalf("logged %d records in %d flushes, want %d in %d", fl.appended, fl.flushes, tc.appended, tc.wantFlushes)
			}
			if tc.appended > 0 && fl.batches != 1 {
				t.Fatalf("logged the job as %d group frames, want one", fl.batches)
			}
			for i, fr := range fl.frames {
				if !bytes.Equal(fr, tc.nodes[i].Frame) {
					t.Fatalf("record %d is not node %d's request frame", i, tc.nodes[i].U)
				}
			}
			if tc.wantErr {
				return
			}
			// A client that lost the reply retries the same nodes: the
			// same assignments come back and nothing new is logged or
			// flushed, on either route.
			for _, retry := range []func(context.Context, *Pool, []store.PushNode) ([]int32, error){s.Ingest, s.IngestBatch} {
				again, err := retry(ctx, mgr.Pool(), tc.nodes)
				if err != nil || !slices.Equal(again, blocks) {
					t.Fatalf("duplicate retry: %v, %v; want %v", again, err, blocks)
				}
			}
			if fl.appended != tc.appended || fl.flushes != tc.wantFlushes {
				t.Fatalf("duplicate retries grew the log to %d records, %d flushes", fl.appended, fl.flushes)
			}
		})
	}
}

// TestCancelledRequestKeepsItsNodes: a request whose context ends while
// its job waits for the session's turn returns at once and its job never
// runs — nothing assigned, nothing logged — so its chunk and decode
// arena can go straight back to the ingest pool. Posted again, the same
// nodes are assigned and logged verbatim, even after other requests
// have reused the pooled state.
func TestCancelledRequestKeepsItsNodes(t *testing.T) {
	victim := []store.PushNode{{U: 40, Adj: []int32{41, 42, 43}}, {U: 41, Adj: []int32{40, 50}}}
	bodies := map[string]func([]store.PushNode) (string, []byte){
		"wire": func(nodes []store.PushNode) (string, []byte) {
			var b []byte
			for _, nd := range nodes {
				b = wire.AppendNodeFrame(b, nd.U, 1, nd.Adj, nil)
			}
			return wire.MediaType, b
		},
		"ndjson": func(nodes []store.PushNode) (string, []byte) {
			var b bytes.Buffer
			enc := json.NewEncoder(&b)
			for _, nd := range nodes {
				_ = enc.Encode(nd)
			}
			return "application/x-ndjson", b.Bytes()
		},
	}
	for format, body := range bodies {
		t.Run(format, func(t *testing.T) {
			fl := &faultLog{}
			mgr := testManager(t, Config{Store: &faultStore{log: fl}})
			s, err := mgr.Create(store.CreateSpec{N: 64, M: 63, K: 2, Record: true})
			if err != nil {
				t.Fatal(err)
			}
			post := func(ctx context.Context, mgr *Manager, id string, nodes []store.PushNode) {
				ct, b := body(nodes)
				req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/nodes", bytes.NewReader(b)).WithContext(ctx)
				req.Header.Set("Content-Type", ct)
				NewServer(mgr).ServeHTTP(httptest.NewRecorder(), req)
			}

			// Hold the session's turn, and give up on the request while its
			// job waits for it.
			s.turn <- struct{}{}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			post(ctx, mgr, s.ID, victim)
			cancel()

			// Other requests run to completion over the ingest pool in the
			// meantime, with other nodes in their arenas.
			other := testManager(t, Config{})
			for i := 0; i < 8; i++ {
				o, err := other.Create(pathSpec(64, 2))
				if err != nil {
					t.Fatal(err)
				}
				post(context.Background(), other, o.ID, pathNodes(64))
			}

			<-s.turn
			if got := s.eng.Assigned(); got != 0 || len(fl.frames) != 0 {
				t.Fatalf("the cancelled request assigned %d nodes and logged %d records, want none", got, len(fl.frames))
			}
			post(context.Background(), mgr, s.ID, victim)
			sum, err := s.Finish(context.Background(), mgr.Pool())
			if err != nil {
				t.Fatal(err)
			}
			if sum.Assigned != int32(len(victim)) {
				t.Fatalf("assigned %d nodes, want the request's %d", sum.Assigned, len(victim))
			}
			i := 0
			_ = s.eng.Source().ForEach(func(u, _ int32, adj, _ []int32) {
				if u != victim[i].U || !slices.Equal(adj, victim[i].Adj) {
					t.Errorf("engine was pushed node %d with adjacency %v, want %d %v", u, adj, victim[i].U, victim[i].Adj)
				}
				i++
			})
			if len(fl.frames) != len(victim) {
				t.Fatalf("logged %d records, want %d", len(fl.frames), len(victim))
			}
			var arena wire.Arena
			for i, fr := range fl.frames {
				payload, err := wire.VerifyFrame(fr)
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				nd, err := wire.DecodeNodeInto(&arena, payload)
				if err != nil || nd.U != victim[i].U || !slices.Equal(nd.Adj, victim[i].Adj) {
					t.Fatalf("record %d holds node %d %v (%v), want %d %v", i, nd.U, nd.Adj, err, victim[i].U, victim[i].Adj)
				}
			}
		})
	}
}

// TestSealFaultFailsFinish: a finish whose seal cannot be persisted is
// not acknowledged — the store must never claim less than the client
// was told.
func TestSealFaultFailsFinish(t *testing.T) {
	fl := &faultLog{failSeal: true}
	mgr := testManager(t, Config{Store: &faultStore{log: fl}})
	s, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(context.Background(), mgr.Pool(), pathNodes(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background(), mgr.Pool()); !errors.Is(err, ErrDurability) {
		t.Fatalf("finish with seal fault: %v, want ErrDurability", err)
	}
	if s.Finished() {
		t.Fatal("session marked finished despite failed seal")
	}
	if _, err := mgr.Get(s.ID); !errors.Is(err, ErrGone) {
		t.Fatalf("get after seal fault: %v, want ErrGone", err)
	}
}

// TestDurabilityErrorMapsTo500 checks the HTTP mapping of wal faults,
// including one whose cause is a malformed frame.
func TestDurabilityErrorMapsTo500(t *testing.T) {
	for _, err := range []error{
		errors.Join(ErrDurability),
		errors.Join(ErrDurability, wire.ErrMalformed),
	} {
		if status, code := statusOf(err), errCode(err); status != 500 || code != "durability_failure" {
			t.Fatalf("%v: status %d code %q, want 500 durability_failure", err, status, code)
		}
	}
}

// TestCreateGCsOnAdmitRollback: two concurrent creates racing for the
// last session slot both persist their state first; the loser of the
// final admission check must garbage-collect its just-created log.
func TestCreateGCsOnAdmitRollback(t *testing.T) {
	var barrier sync.WaitGroup
	barrier.Add(2)
	st := &faultStore{log: &faultLog{}, barrier: &barrier}
	mgr := testManager(t, Config{Store: st, MaxSessions: 1})

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := mgr.Create(store.CreateSpec{N: 4, M: 3, K: 2})
			errs <- err
		}()
	}
	var limited, ok int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case errors.Is(err, ErrLimit):
			limited++
		default:
			t.Fatalf("create: %v", err)
		}
	}
	if ok != 1 || limited != 1 {
		t.Fatalf("concurrent creates: %d ok, %d limited; want 1 and 1", ok, limited)
	}
	if got := st.removedCount(); got != 1 {
		t.Fatalf("rolled-back create removed %d persisted sessions, want 1", got)
	}
}
