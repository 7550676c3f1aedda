package wire

import (
	"encoding/binary"
	"io"
)

// Reader streams frames out of an io.Reader with its own buffering and
// a caller-visible arena. Each frame's verbatim bytes (header included)
// land in the arena's Raw buffer, so the consumer can hand them to the
// WAL byte-for-byte; decoded adjacency lands in Ints. Nothing is
// allocated per frame once the buffers have warmed up — the steady
// ingest path is allocation-free.
//
// A Reader is not safe for concurrent use.
type Reader struct {
	r     io.Reader
	Arena Arena

	// MaxPayload, when positive, rejects frames whose declared payload
	// exceeds it before buffering them (the HTTP boundary caps node
	// frames well below the codec-level MaxFramePayload). Zero means
	// MaxFramePayload.
	MaxPayload int

	// in is the read-ahead buffer over r; lo/hi delimit buffered bytes.
	in     []byte
	lo, hi int
	err    error // sticky read error (including io.EOF)
}

// NewReader returns a Reader over r with a 64 KiB read-ahead buffer.
// Call Reset to reuse it on another stream (pooled readers keep their
// buffers).
func NewReader(r io.Reader) *Reader {
	return NewReaderSize(r, 64<<10)
}

// NewReaderSize returns a Reader over r whose read-ahead buffer starts
// at size bytes. The buffer and the arena grow past it only for a frame
// that does not fit, so a reader of replies of a few hundred bytes
// holds about that much, not the 128 KiB of NewReader's.
func NewReaderSize(r io.Reader, size int) *Reader {
	rd := &Reader{in: make([]byte, max(size, FrameHeaderSize))}
	rd.Reset(r)
	return rd
}

// Reset points the Reader at a new stream and empties the arena,
// keeping every buffer's capacity.
func (rd *Reader) Reset(r io.Reader) {
	rd.r = r
	rd.lo, rd.hi = 0, 0
	rd.err = nil
	rd.Arena.Reset()
	if rd.in == nil {
		rd.in = make([]byte, 64<<10)
	}
}

// Buffered reports how many read-ahead bytes no frame has consumed yet.
// Zero right after a frame means the stream held nothing more when it
// was last read: a sender waiting for an answer has sent all it will.
func (rd *Reader) Buffered() int { return rd.hi - rd.lo }

// fill ensures at least n unread bytes are buffered, compacting first.
// Returns io.EOF only when zero bytes remain, io.ErrUnexpectedEOF when
// the stream ends inside the span.
func (rd *Reader) fill(n int) error {
	if rd.hi-rd.lo >= n {
		return nil
	}
	if rd.lo > 0 {
		copy(rd.in, rd.in[rd.lo:rd.hi])
		rd.hi -= rd.lo
		rd.lo = 0
	}
	if n > len(rd.in) {
		grown := make([]byte, max(2*len(rd.in), n))
		copy(grown, rd.in[:rd.hi])
		rd.in = grown
	}
	for rd.hi < n {
		if rd.err != nil {
			if rd.hi == 0 && rd.err == io.EOF {
				return io.EOF
			}
			if rd.err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return rd.err
		}
		m, err := rd.r.Read(rd.in[rd.hi:])
		rd.hi += m
		if err != nil {
			rd.err = err
		}
	}
	return nil
}

// NextFrame reads one complete frame, verifies its checksum, and
// returns (payload, frame): the payload for decoding and the verbatim
// frame bytes (header included) for zero-copy logging. Both alias the
// arena's Raw buffer and stay valid until the arena resets. io.EOF
// means a clean end exactly at a frame boundary; ErrMalformed covers
// truncation mid-frame, an invalid length, or a checksum mismatch.
func (rd *Reader) NextFrame() (payload, frame []byte, err error) {
	if err := rd.fill(FrameHeaderSize); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, nil, ErrMalformed
		}
		return nil, nil, err
	}
	hdr := rd.in[rd.lo : rd.lo+FrameHeaderSize]
	n := binary.LittleEndian.Uint32(hdr[0:])
	maxPayload := rd.MaxPayload
	if maxPayload <= 0 {
		maxPayload = MaxFramePayload
	}
	if n == 0 || int64(n) > int64(maxPayload) {
		return nil, nil, ErrMalformed
	}
	total := FrameHeaderSize + int(n)
	if err := rd.fill(total); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, ErrMalformed
		}
		return nil, nil, err
	}
	// Copy the frame out of the read buffer into the arena: the read
	// buffer is overwritten by the next fill, the arena lives until the
	// consumer resets it.
	base := len(rd.Arena.Raw)
	if cap(rd.Arena.Raw)-base < total {
		grown := make([]byte, base, max(2*cap(rd.Arena.Raw), base+total, len(rd.in)))
		copy(grown, rd.Arena.Raw)
		rd.Arena.Raw = grown
	}
	rd.Arena.Raw = append(rd.Arena.Raw, rd.in[rd.lo:rd.lo+total]...)
	rd.lo += total
	frame = rd.Arena.Raw[base : base+total : base+total]
	if payload, err = VerifyFrame(frame); err != nil {
		return nil, nil, err
	}
	return payload, frame, nil
}

// NextNode reads one node frame and decodes it into the arena,
// returning the node plus its verbatim frame bytes. Any other record
// type is malformed in a node stream.
func (rd *Reader) NextNode() (Node, []byte, error) {
	payload, frame, err := rd.NextFrame()
	if err != nil {
		return Node{}, nil, err
	}
	nd, err := DecodeNodeInto(&rd.Arena, payload)
	if err != nil {
		return Node{}, nil, err
	}
	return nd, frame, nil
}
