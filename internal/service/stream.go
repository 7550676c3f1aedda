package service

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"oms/internal/trace"
	"oms/internal/wire"
)

// streamIdleTimeout ends an upgraded stream that sends nothing for this
// long, between pushes or inside one. A client closes a stream no push
// used for a second, so this reaps only a client that went away without
// closing its connection.
const streamIdleTimeout = 30 * time.Second

// streamCloseWait bounds how long Manager.Close waits for the open
// streams to reach a chunk boundary before it cuts them off.
const streamCloseWait = time.Second

// nodeStream is one upgraded /nodes connection (wire.StreamProtocol),
// served by the ingest loop of the request that opened it. The loop's
// frame reader reads it (Read) and each answered chunk's reply frames
// collect in it (Write) until send writes them to the connection in one
// write. http.Server.Shutdown neither waits for nor closes a hijacked
// connection, so the Manager tracks the open ones: end asks a stream to
// end at its next chunk boundary.
type nodeStream struct {
	mgr  *Manager
	conn net.Conn
	// pre holds what net/http read past the upgrade request's header
	// before the hijack; Read returns it before it reads conn.
	pre []byte
	// between is set by the ingest loop while no byte of the next push
	// has been read; only the loop's goroutine touches it.
	between bool
	ending  atomic.Bool
	out     []byte
}

// streamUpgrade reports whether r asks to upgrade to an open stream:
// HTTP/1.1, "Connection: Upgrade" and "Upgrade: oms-stream", frames
// both ways.
func streamUpgrade(r *http.Request) bool {
	if r.ProtoMajor != 1 || r.ProtoMinor < 1 ||
		!wire.HasToken(r.Header.Get("Connection"), "upgrade") ||
		!wire.HasToken(r.Header.Get("Upgrade"), wire.StreamProtocol) {
		return false
	}
	bin, err := requestBinary(r)
	return err == nil && bin && acceptBinary(r, true)
}

// upgradeStream takes over the connection of an upgrade request and
// answers it 101 Switching Protocols. It returns hijacked false, having
// written nothing, when the writer cannot be hijacked; the request then
// goes on as a plain one. It returns a nil stream with hijacked set
// when the connection is gone: the handler is done. A stream asked for
// while the Manager's streams are ending is closed at once, unanswered.
func (mg *Manager) upgradeStream(w http.ResponseWriter, rc *http.ResponseController) (st *nodeStream, hijacked bool) {
	conn, brw, err := rc.Hijack()
	if err != nil {
		return nil, false
	}
	st = &nodeStream{mgr: mg, conn: conn}
	if n := brw.Reader.Buffered(); n > 0 {
		// Copied, so the hijacked reader's buffer goes with brw: the
		// frames are read through the frame reader's buffer alone.
		peek, _ := brw.Reader.Peek(n)
		st.pre = append([]byte(nil), peek...)
	}
	if !mg.addStream(st) {
		_ = conn.Close()
		return nil, true
	}
	st.out = append(st.out, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.StreamProtocol+"\r\n"...)
	if tp := w.Header().Get(trace.Header); tp != "" {
		st.out = append(st.out, trace.Header+": "+tp+"\r\n"...)
	}
	st.out = append(st.out, "\r\n"...)
	if !st.send() {
		st.close()
		return nil, true
	}
	return st, true
}

// Read reads the next bytes of the stream. Between pushes it arms
// streamIdleTimeout and, once the stream is ending, or when that time
// passes without a byte, reports a clean end (io.EOF at a frame
// boundary). Inside a push, an ending only interrupts the wait: the rest
// of the push is read and answered first.
func (st *nodeStream) Read(p []byte) (int, error) {
	if len(st.pre) > 0 {
		n := copy(p, st.pre)
		st.pre = st.pre[n:]
		st.between = false
		return n, nil
	}
	if st.between {
		// Armed before ending is looked at: an end after the look sets
		// its deadline after this one, so the read below returns.
		_ = st.conn.SetReadDeadline(time.Now().Add(streamIdleTimeout))
		if st.ending.Load() {
			return 0, io.EOF
		}
	}
	for {
		n, err := st.conn.Read(p)
		if n > 0 {
			st.between = false
			return n, err
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			return n, err
		}
		if st.between {
			return 0, io.EOF
		}
		if !st.ending.Load() {
			return n, err
		}
		_ = st.conn.SetReadDeadline(time.Now().Add(streamIdleTimeout))
	}
}

// Write adds p to the reply of the chunk being answered.
func (st *nodeStream) Write(p []byte) (int, error) {
	st.out = append(st.out, p...)
	return len(p), nil
}

// send writes the pending reply in one write and reports whether it
// went out. A client that reads nothing for streamIdleTimeout fails it.
func (st *nodeStream) send() bool {
	if len(st.out) == 0 {
		return true
	}
	_ = st.conn.SetWriteDeadline(time.Now().Add(streamIdleTimeout))
	_, err := st.conn.Write(st.out)
	st.out = st.out[:0]
	return err == nil
}

// close sends what is pending, closes the connection and forgets the
// stream.
func (st *nodeStream) close() {
	st.send()
	_ = st.conn.Close()
	st.mgr.dropStream(st)
}

// end asks the stream to end at its next chunk boundary: a read waiting
// for the next push returns at once. Safe from any goroutine.
func (st *nodeStream) end() {
	st.ending.Store(true)
	_ = st.conn.SetReadDeadline(time.Now())
}

// addStream tracks st, unless the streams are ending.
func (mg *Manager) addStream(st *nodeStream) bool {
	mg.smu.Lock()
	defer mg.smu.Unlock()
	if mg.streamsEnding {
		return false
	}
	if mg.streams == nil {
		mg.streams = make(map[*nodeStream]struct{})
	}
	mg.streams[st] = struct{}{}
	mg.swg.Add(1)
	return true
}

// dropStream forgets a closed stream.
func (mg *Manager) dropStream(st *nodeStream) {
	mg.smu.Lock()
	delete(mg.streams, st)
	mg.smu.Unlock()
	mg.swg.Done()
}

// EndStreams asks every open stream to end at its next chunk boundary
// and closes any stream asked for from now on unanswered, so its client
// pushes plain requests instead. omsd registers it with
// http.Server.RegisterOnShutdown: Shutdown neither waits for nor closes
// an upgraded connection. It does not wait; WaitStreams does.
func (mg *Manager) EndStreams() {
	mg.smu.Lock()
	defer mg.smu.Unlock()
	mg.streamsEnding = true
	for st := range mg.streams {
		st.end()
	}
}

// WaitStreams ends the open streams (EndStreams) and waits until each
// has ended. Once ctx is done it closes the connections of those left,
// waits for their handlers to return and reports ctx's error.
func (mg *Manager) WaitStreams(ctx context.Context) error {
	mg.EndStreams()
	done := make(chan struct{})
	go func() {
		mg.swg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	mg.smu.Lock()
	for st := range mg.streams {
		_ = st.conn.Close()
	}
	mg.smu.Unlock()
	<-done
	return ctx.Err()
}
