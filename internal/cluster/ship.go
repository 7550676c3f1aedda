package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"oms"
	"oms/internal/store"
	"oms/internal/trace"
	"oms/internal/wire"
)

// Control payload types on a replication stream, disjoint from both the
// WAL record types (1..4) and the wire frame types (5..9). Control
// frames use the ordinary wire framing (len + crc32), so one reader
// decodes both directions.
const (
	repSpec = 0x10 // owner -> follower: spec.json bytes, first frame of a stream
	repAck  = 0x11 // follower -> owner: u64 LE synced offset (first one is the hello-ack)
	repNack = 0x12 // follower -> owner: u64 LE synced offset; a shipped frame was rejected
)

const ctlLen = 9 // type byte + u64 offset

func ctlFrame(typ byte, off int64) []byte {
	p := make([]byte, ctlLen)
	p[0] = typ
	binary.LittleEndian.PutUint64(p[1:], uint64(off))
	return wire.AppendFrame(nil, p)
}

func parseCtl(payload []byte) (typ byte, off int64, err error) {
	if len(payload) != ctlLen {
		return 0, 0, fmt.Errorf("cluster: control frame of %d bytes", len(payload))
	}
	return payload[0], int64(binary.LittleEndian.Uint64(payload[1:])), nil
}

// errDone signals a stream that finished cleanly: the session is sealed
// and the follower acknowledged every byte.
var errDone = errors.New("cluster: replication complete")

// shippableLog is what the shipper needs from the underlying WAL log:
// the whole-frame flushed boundary it may ship up to, and the seal.
type shippableLog interface {
	Flushed() int64
	Sealed() bool
}

// --- store.Store decoration ---

// Create implements store.Store: the session's durable log comes from
// the primary store, wrapped so every flushed prefix is shipped to the
// session's follower.
func (n *Node) Create(id string, spec store.CreateSpec) (store.SessionLog, error) {
	log, err := n.cfg.Store.Create(id, spec)
	if err != nil {
		return nil, err
	}
	return n.wrapLog(id, log), nil
}

// Recover implements store.Store, wrapping the log every recovered
// session's replay hands back the same way Create does — a restarted
// owner resumes shipping from whatever offset its follower reports.
func (n *Node) Recover() ([]store.RecoveredSession, error) {
	recs, err := n.cfg.Store.Recover()
	for i := range recs {
		n.replicateReplay(&recs[i])
	}
	return recs, err
}

// replicateReplay makes rec's replay wrap the log it hands back. Only a
// log the replay produced gets a shipper, so a session rejected before
// or during replay leaves none behind; one the manager rejects after
// its replay drops its shipper when the manager closes the log
// (replicatedLog.Close).
func (n *Node) replicateReplay(rec *store.RecoveredSession) {
	replay, id := rec.Replay, rec.ID
	rec.Replay = func(fn func(u, w int32, adj, ew []int32, block int32) error, stats func(oms.EstimatorState) error) (store.SessionLog, bool, error) {
		log, sealed, err := replay(fn, stats)
		if err != nil {
			return nil, false, err
		}
		return n.wrapLog(id, log), sealed, nil
	}
}

// Remove implements store.Store: local GC plus propagation — the
// follower drops its replica so a dead session cannot be promoted back
// from the grave. The manager closed the session's log first, which
// stopped its shipper.
func (n *Node) Remove(id string) error {
	n.forgetReplica(id)
	return n.cfg.Store.Remove(id)
}

// ReplaySource implements store.Store by delegation.
func (n *Node) ReplaySource(id string) (oms.Source, error) {
	return n.cfg.Store.ReplaySource(id)
}

// wrapLog attaches a replication shipper to one session log. Logs that
// do not expose their flushed boundary (never the wal store's) pass
// through unwrapped.
func (n *Node) wrapLog(id string, log store.SessionLog) store.SessionLog {
	sl, ok := log.(shippableLog)
	if !ok {
		return log
	}
	sh := newShipper(n, id, n.cfg.Store.LogPath(id), sl)
	n.mu.Lock()
	if old := n.shippers[id]; old != nil {
		old.stop()
	}
	n.shippers[id] = sh
	closed := n.closed
	n.mu.Unlock()
	if closed {
		sh.stop()
	}
	return &replicatedLog{SessionLog: log, sh: sh}
}

// dropShipper stops sh and forgets it, unless a newer shipper of the
// same session has replaced it.
func (n *Node) dropShipper(sh *shipper) {
	n.mu.Lock()
	if n.shippers[sh.id] == sh {
		delete(n.shippers, sh.id)
	}
	n.mu.Unlock()
	sh.stop()
}

// forgetReplica tells the session's follower to drop its replica: a
// best-effort GC propagation, off the caller's path. An orphaned
// replica is only storage (promotion checks the tombstone before
// adopting), so a follower that stays unreachable past these retries
// leaks a directory, not correctness.
func (n *Node) forgetReplica(id string) {
	go func() {
		for attempt := 0; attempt < 3; attempt++ {
			_, addr := n.followerOf(id)
			if addr == "" {
				return
			}
			ctx, cancel := context.WithTimeout(n.ctx, 2*time.Second)
			req, err := http.NewRequestWithContext(ctx, "DELETE", addr+"/v1/replica/sessions/"+id, nil)
			if err == nil {
				resp, err := n.hc.Do(req)
				if err == nil {
					resp.Body.Close()
					cancel()
					return
				}
			}
			cancel()
			select {
			case <-n.ctx.Done():
				return
			case <-time.After(500 * time.Millisecond):
			}
		}
	}()
}

// followerOf resolves the replication target for a session this node
// owns: the ring successor among currently-alive members.
func (n *Node) followerOf(id string) (node, addr string) {
	f := n.ring.Load().Successor(id)
	if f == "" || f == n.cfg.Self {
		return "", ""
	}
	return f, n.cfg.Peers[f]
}

// replicatedLog decorates a session log with replication: appends and
// lifecycle go to the local WAL untouched, and every Flush (the ack
// barrier) hands the newly flushed prefix to the shipper — waiting for
// the follower's ack in sync mode, merely nudging it in async mode.
type replicatedLog struct {
	store.SessionLog
	sh *shipper
}

func (rl *replicatedLog) Flush() error {
	if err := rl.SessionLog.Flush(); err != nil {
		return err
	}
	rl.sh.flushNotify()
	return nil
}

func (rl *replicatedLog) Seal() error {
	if err := rl.SessionLog.Seal(); err != nil {
		return err
	}
	rl.sh.flushNotify()
	return nil
}

// Close releases the log and stops its shipper: a shipper lives exactly
// as long as the log it ships. The manager closes a session's log when
// it retires the session, at shutdown, and when it rejects a recovered
// session after its replay, so a rejected restart or promotion leaves
// no shipper behind.
func (rl *replicatedLog) Close() error {
	err := rl.SessionLog.Close()
	rl.sh.n.dropShipper(rl.sh)
	return err
}

// --- the shipper ---

// shipper replicates one owned session to its follower. It ships the
// on-disk log file verbatim from the follower's acknowledged offset up
// to the log's flushed boundary — whole frames by construction — over a
// persistent full-duplex POST, and reconnects from the follower's
// durable offset after any error, nack, or membership change.
type shipper struct {
	n    *Node
	id   string
	path string
	log  shippableLog

	ctx    context.Context
	cancel context.CancelFunc
	wake   chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	acked   int64
	started bool // true once a stream delivered a hello-ack
	waiters []ackWait
}

type ackWait struct {
	off int64
	ch  chan struct{}
}

func newShipper(n *Node, id, path string, log shippableLog) *shipper {
	s := &shipper{n: n, id: id, path: path, log: log, wake: make(chan struct{}, 1)}
	s.ctx, s.cancel = context.WithCancel(n.ctx)
	s.wg.Add(1)
	go s.run()
	return s
}

func (s *shipper) stop() {
	s.cancel()
	s.wg.Wait()
}

// nudge wakes the ship loop (new flushed bytes, membership change, or
// an ack that may satisfy the done condition).
func (s *shipper) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// lag is the flushed-but-unacknowledged byte count — 0 for a fully
// replicated session, and the whole flushed log before the first
// hello-ack.
func (s *shipper) lag() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l := s.log.Flushed() - s.acked; l > 0 {
		return l
	}
	return 0
}

func (s *shipper) ackedNow() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

func (s *shipper) setAcked(off int64) {
	s.mu.Lock()
	if off > s.acked {
		s.acked = off
	}
	rest := s.waiters[:0]
	for _, w := range s.waiters {
		if s.acked >= w.off {
			close(w.ch)
		} else {
			rest = append(rest, w)
		}
	}
	s.waiters = rest
	s.mu.Unlock()
	s.nudge()
}

// flushNotify is the Flush hook: hand the new flushed boundary to the
// ship loop, and in sync mode wait — bounded — for the follower to
// acknowledge it. A timeout degrades that one flush to async rather
// than failing ingest: a stalled follower costs replication lag, never
// availability.
func (s *shipper) flushNotify() {
	off := s.log.Flushed()
	s.nudge()
	if s.n.cfg.AckMode != "sync" {
		return
	}
	s.mu.Lock()
	if s.acked >= off {
		s.mu.Unlock()
		return
	}
	w := ackWait{off: off, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	select {
	case <-w.ch:
	case <-time.After(s.n.cfg.AckTimeout):
		if s.n.syncDegraded != nil {
			s.n.syncDegraded.Inc()
		}
	case <-s.ctx.Done():
	}
}

func (s *shipper) run() {
	defer s.wg.Done()
	backoff := 200 * time.Millisecond
	for {
		if s.ctx.Err() != nil {
			return
		}
		follower, addr := s.n.followerOf(s.id)
		if addr == "" {
			// Alone in the ring: nothing to ship to until a peer returns.
			select {
			case <-s.ctx.Done():
				return
			case <-s.wake:
			case <-time.After(time.Second):
			}
			continue
		}
		err := s.stream(follower, addr)
		if errors.Is(err, errDone) || s.ctx.Err() != nil {
			return
		}
		if s.n.reconnects != nil {
			s.n.reconnects.Inc()
		}
		s.n.cfg.Logf("cluster: replicate %s -> %s: %v (reconnecting)", s.id, follower, err)
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// stream runs one replication connection: spec frame, hello-ack, then
// ship-and-ack until the connection breaks or the session completes.
func (s *shipper) stream(follower, addr string) error {
	spec, err := s.n.cfg.Store.ReadSpecBytes(s.id)
	if err != nil {
		return err
	}
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, "POST", addr+"/v1/replica/sessions/"+s.id, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.MediaType)

	var act *trace.Active
	if tr := s.n.cfg.Tracer; tr != nil {
		act = tr.Start(trace.Context{}, false, "repl.ship "+s.id+" -> "+follower, time.Now())
	}
	status := 0
	defer func() { act.Finish(status, "") }()

	type doRes struct {
		resp *http.Response
		err  error
	}
	ch := make(chan doRes, 1)
	go func() {
		resp, err := s.n.hc.Do(req)
		ch <- doRes{resp, err}
	}()
	if _, err := pw.Write(wire.AppendFrame(nil, append([]byte{repSpec}, spec...))); err != nil {
		return err
	}
	res := <-ch
	if res.err != nil {
		return res.err
	}
	resp := res.resp
	defer resp.Body.Close()
	status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("follower %s: %s: %s", follower, resp.Status, body)
	}

	rd := wire.NewReader(resp.Body)
	payload, _, err := rd.NextFrame()
	if err != nil {
		return fmt.Errorf("hello-ack: %w", err)
	}
	typ, off, err := parseCtl(payload)
	if err != nil || typ != repAck {
		return fmt.Errorf("hello-ack: unexpected frame %#x", typ)
	}
	s.setAcked(off)
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	sent := off

	// Acks stream back while we ship; a nack carries the follower's
	// durable offset and means "reconnect and resend from there".
	ackErr := make(chan error, 1)
	go func() {
		for {
			payload, _, err := rd.NextFrame()
			if err != nil {
				ackErr <- err
				return
			}
			typ, off, err := parseCtl(payload)
			if err != nil {
				ackErr <- err
				return
			}
			switch typ {
			case repAck:
				t0 := time.Now()
				s.setAcked(off)
				if s.n.acks != nil {
					s.n.acks.Inc()
				}
				act.Span("repl.ack", act.Root(), t0, 0)
			case repNack:
				if s.n.nacks != nil {
					s.n.nacks.Inc()
				}
				s.setAcked(off)
				ackErr <- fmt.Errorf("follower rejected a frame, durable offset %d", off)
				return
			default:
				ackErr <- fmt.Errorf("unexpected control frame %#x", typ)
				return
			}
		}
	}()

	buf := make([]byte, 256<<10)
	for {
		for {
			flushed := s.log.Flushed()
			if sent >= flushed {
				break
			}
			nn := flushed - sent
			if nn > int64(len(buf)) {
				nn = int64(len(buf))
			}
			if _, err := io.ReadFull(f, buf[:nn]); err != nil {
				return fmt.Errorf("read log: %w", err)
			}
			t0 := time.Now()
			if _, err := pw.Write(buf[:nn]); err != nil {
				// The transport closed the pipe; the ack reader holds the
				// real error.
				return <-ackErr
			}
			act.Span("repl.write", act.Root(), t0, time.Since(t0))
			sent += nn
			if s.n.shipBytes != nil {
				s.n.shipBytes.Add(nn)
			}
		}
		if s.log.Sealed() && sent == s.log.Flushed() && s.ackedNow() == sent {
			// Everything shipped and acknowledged, and no more can come:
			// close our half, let the follower sync and hang up.
			pw.Close()
			if err := <-ackErr; err != nil && !errors.Is(err, io.EOF) {
				return err
			}
			status = http.StatusOK
			return errDone
		}
		select {
		case err := <-ackErr:
			return err
		case <-s.wake:
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
}
