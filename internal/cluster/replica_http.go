package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"oms/internal/wal"
	"oms/internal/wire"
)

// ackEvery is the follower's ack cadence and so its sync cadence:
// appended frames are written through, synced (fdatasync over the
// replica's zero tail) and acknowledged at most this often (plus once
// at stream end), so a sync-mode owner waits one tick, not one sync per
// record.
const ackEvery = 5 * time.Millisecond

// replicaStream is one inbound replication stream's shared state. The
// handler goroutine appends; the acker goroutine syncs and acks; a
// promotion closes the stream from outside. The mutex serializes all
// three — in particular no append can interleave with the promotion
// rename.
type replicaStream struct {
	mu     sync.Mutex
	rl     *wal.ReplicaLog
	closed bool
}

// closeLocked detaches the stream from its file: the replica's Close
// writes its frames through, syncs them and cuts its zero tail. A failed
// close means the tail may not be durable when a promotion renames the
// file, so callers log it. Idempotent; only the first call can fail.
func (rs *replicaStream) closeLocked() error {
	if rs.closed {
		return nil
	}
	rs.closed = true
	return rs.rl.Close()
}

// closeStream closes rs under its lock and logs a close that failed.
func (n *Node) closeStream(id string, rs *replicaStream) {
	rs.mu.Lock()
	err := rs.closeLocked()
	rs.mu.Unlock()
	if err != nil {
		n.cfg.Logf("cluster: replica %s: close: %v", id, err)
	}
}

// closeReplicaStream detaches the inbound stream for id, if any: after
// it returns, no handler goroutine will write another byte to that
// session's replica file — the promotion rename is safe.
func (n *Node) closeReplicaStream(id, why string) {
	n.mu.Lock()
	rs := n.repl[id]
	delete(n.repl, id)
	n.mu.Unlock()
	if rs == nil {
		return
	}
	n.closeStream(id, rs)
	n.cfg.Logf("cluster: replica stream %s closed (%s)", id, why)
}

// ServeHTTP is the /v1/replica/sessions/{id} surface, mounted through
// service.Config.Replica: POST is a replication stream from the
// session's owner, DELETE is GC propagation.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodDelete:
		n.closeReplicaStream(id, "owner deleted the session")
		if err := n.cfg.Replicas.Remove(id); err != nil {
			replicaError(w, http.StatusInternalServerError, err.Error(), "internal")
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPost:
		n.serveReplicaStream(w, r, id)
	default:
		replicaError(w, http.StatusMethodNotAllowed, "method not allowed", "bad_request")
	}
}

func replicaError(w http.ResponseWriter, status int, msg, code string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

func (n *Node) serveReplicaStream(w http.ResponseWriter, r *http.Request, id string) {
	// A node that owns the session by its current ring cannot also
	// follow it: either the sender is working from a stale table, or
	// this node already promoted the session after the sender's supposed
	// death. Rejecting protects the promoted copy from a zombie owner.
	if n.OwnsID(id) {
		if n.replRejects != nil {
			n.replRejects.Inc()
		}
		replicaError(w, http.StatusConflict, "node "+n.cfg.Self+" owns session "+id+", cannot follow it", "wrong_node")
		return
	}

	rd := wire.NewReader(r.Body)
	payload, _, err := rd.NextFrame()
	if err != nil {
		replicaError(w, http.StatusBadRequest, "bad spec frame: "+err.Error(), "malformed_frame")
		return
	}
	if len(payload) < 1 || payload[0] != repSpec {
		replicaError(w, http.StatusBadRequest, "stream must open with a spec frame", "malformed_frame")
		return
	}
	// The owner reconnected before the old connection noticed: the new
	// stream supersedes it. The old one closes first — its buffered
	// frames written through, its tail cut — so the open below walks a
	// file no one else appends to, and its hello-ack covers every frame
	// the old stream received.
	n.closeReplicaStream(id, "superseded by a new stream")
	rl, err := n.cfg.Replicas.OpenReplica(id, payload[1:])
	if err != nil {
		replicaError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	rs := &replicaStream{rl: rl}
	n.mu.Lock()
	if old := n.repl[id]; old != nil {
		// A third stream raced in between the close and the open.
		n.closeStream(id, old)
	}
	n.repl[id] = rs
	n.mu.Unlock()
	defer func() {
		n.closeStream(id, rs)
		n.mu.Lock()
		if n.repl[id] == rs {
			delete(n.repl, id)
		}
		n.mu.Unlock()
	}()

	// Full duplex: the hello-ack (and every later ack) flows back while
	// the request body is still streaming in.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		replicaError(w, http.StatusInternalServerError, "full-duplex unsupported: "+err.Error(), "internal")
		return
	}
	w.Header().Set("Content-Type", wire.MediaType)
	w.WriteHeader(http.StatusOK)

	// sendCtl writes one control frame under the stream mutex (the acker
	// and the handler share the connection).
	sendCtl := func(typ byte, off int64) error {
		if _, err := w.Write(ctlFrame(typ, off)); err != nil {
			return err
		}
		return rc.Flush()
	}

	// endStream closes the replica before the stream's last ack or nack,
	// so the offset it names is where the replica file ends. The owner
	// counts a nacked offset as durable too, so a replica whose close
	// failed sends neither, and the owner resumes from its last ack.
	// Callers hold rs.mu.
	endStream := func(typ byte) {
		if err := rs.closeLocked(); err != nil {
			n.cfg.Logf("cluster: replica %s: close: %v", id, err)
			return
		}
		sendCtl(typ, rl.Offset())
	}

	rs.mu.Lock()
	lastAck := rl.Offset()
	err = sendCtl(repAck, lastAck)
	rs.mu.Unlock()
	if err != nil {
		return
	}

	// The acker: every tick, sync and acknowledge whatever arrived
	// since the last ack. Decoupling acks from appends keeps the sync
	// rate bounded, and keeps a sync-mode owner from waiting on a quiet
	// stream (the idle tick acks the tail).
	ackDone := make(chan struct{})
	ackStop := make(chan struct{})
	go func() {
		defer close(ackDone)
		t := time.NewTicker(ackEvery)
		defer t.Stop()
		for {
			select {
			case <-ackStop:
				return
			case <-t.C:
			}
			rs.mu.Lock()
			if rs.closed {
				rs.mu.Unlock()
				return
			}
			if off := rl.Offset(); off > lastAck {
				if rl.Sync() != nil || sendCtl(repAck, off) != nil {
					rs.mu.Unlock()
					return
				}
				lastAck = off
			}
			rs.mu.Unlock()
		}
	}()
	defer func() { close(ackStop); <-ackDone }()

	for {
		payload, frame, err := rd.NextFrame()
		if err != nil {
			rs.mu.Lock()
			defer rs.mu.Unlock()
			if rs.closed {
				return
			}
			if errors.Is(err, io.EOF) {
				endStream(repAck) // clean end of stream: ack the durable tail
				return
			}
			// Torn or corrupt frame on the wire: whatever was appended up
			// to Offset is intact — nack it so the owner resends from
			// there on a fresh connection.
			if n.nacks != nil {
				n.nacks.Inc()
			}
			endStream(repNack)
			n.cfg.Logf("cluster: replica %s: corrupt frame (%v), offset %d", id, err, rl.Offset())
			return
		}
		rs.mu.Lock()
		if rs.closed {
			rs.mu.Unlock()
			return
		}
		if err := rl.Append(payload, frame); err != nil {
			endStream(repNack)
			rs.mu.Unlock()
			n.cfg.Logf("cluster: replica %s: %v, offset %d", id, err, rl.Offset())
			return
		}
		rs.mu.Unlock()
	}
}
