package wire

import "strconv"

// The NDJSON form of the two records the ingest shim carries: the node
// line {"u":…,"w":…,"adj":[…],"ew":[…]} and the assignment line
// {"u":…,"b":…}. The writers produce exactly the bytes encoding/json's
// Encoder produces for the client's and the server's structs of those
// shapes; the parsers recognise a strict canonical subset of the lines
// and leave everything else to encoding/json, so the accepted language,
// the decoded values and the error text stay encoding/json's.
//
// The canonical subset is one object, optionally surrounded by JSON
// whitespace (space, tab, CR, LF) between any two tokens, holding the
// exact lowercase keys of its shape, each at most once, in any order,
// spelled without escapes. Scalars are integers matching
// -?(0|[1-9][0-9]*) that fit int32; adj and ew are arrays of such
// integers, or null. Anything else — other keys or spellings, duplicates,
// fractions and exponents, leading zeros, out-of-range values, a null
// scalar, trailing bytes — is outside the subset.

// AppendNodeLine appends one node as an NDJSON line: a zero w and an
// empty ew are omitted, a nil adj is null and an empty one [], and the
// line ends in '\n'.
func AppendNodeLine(buf []byte, u, w int32, adj, ew []int32) []byte {
	buf = append(buf, `{"u":`...)
	buf = strconv.AppendInt(buf, int64(u), 10)
	if w != 0 {
		buf = append(buf, `,"w":`...)
		buf = strconv.AppendInt(buf, int64(w), 10)
	}
	buf = append(buf, `,"adj":`...)
	buf = appendIntArray(buf, adj)
	if len(ew) > 0 {
		buf = append(buf, `,"ew":`...)
		buf = appendIntArray(buf, ew)
	}
	return append(buf, "}\n"...)
}

// AppendAssignLine appends one assignment as an NDJSON line.
func AppendAssignLine(buf []byte, u, b int32) []byte {
	buf = append(buf, `{"u":`...)
	buf = strconv.AppendInt(buf, int64(u), 10)
	buf = append(buf, `,"b":`...)
	buf = strconv.AppendInt(buf, int64(b), 10)
	return append(buf, "}\n"...)
}

func appendIntArray(buf []byte, vs []int32) []byte {
	if vs == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '[')
	for i, v := range vs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']')
}

// ParseNodeLine recognises a node line of the canonical subset. The
// adjacency and edge weights are appended to arena.Ints and the
// returned slices alias it (a null or absent list is nil). It never
// reports an error: on false the line is outside the subset, arena.Ints
// is as it was, and the caller decodes the line with encoding/json.
func ParseNodeLine(line []byte, arena *Arena) (Node, bool) {
	var nd Node
	var seen uint8
	base := len(arena.Ints)
	s := lineScanner{p: line}
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "u":
			bit = 1
			nd.U, ok = s.int32()
		case "w":
			bit = 2
			nd.W, ok = s.int32()
		case "adj":
			bit = 4
			nd.Adj, ok = s.intArray(arena)
		case "ew":
			bit = 8
			nd.EW, ok = s.intArray(arena)
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	if !ok {
		arena.Ints = arena.Ints[:base]
		return Node{}, false
	}
	return nd, true
}

// ParseAssignLine recognises an assignment line of the canonical
// subset; on false the caller decodes the line with encoding/json.
func ParseAssignLine(line []byte) (u, b int32, ok bool) {
	var seen uint8
	s := lineScanner{p: line}
	ok = s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "u":
			bit = 1
			u, ok = s.int32()
		case "b":
			bit = 2
			b, ok = s.int32()
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		return true
	})
	return u, b, ok
}

// lineScanner walks one line of the canonical subset.
type lineScanner struct {
	p []byte
	i int
}

func (s *lineScanner) skipSpace() {
	for s.i < len(s.p) {
		switch s.p[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *lineScanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.p) && s.p[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object walks the line's one object: field is handed each key and
// parses the value behind it, and the object must be followed by
// nothing but whitespace. A key is the raw bytes between its quotes, so
// an escaped spelling never equals a plain one.
func (s *lineScanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if !s.next('}') {
		for {
			if !s.next('"') {
				return false
			}
			from := s.i
			for s.i < len(s.p) && s.p[s.i] != '"' {
				s.i++
			}
			if s.i == len(s.p) {
				return false
			}
			key := s.p[from:s.i]
			s.i++
			if !s.next(':') || !field(key) {
				return false
			}
			if s.next('}') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	s.skipSpace()
	return s.i == len(s.p)
}

// int32 reads an integer -?(0|[1-9][0-9]*) that fits int32. A fraction,
// an exponent or a second leading digit is left unread, and the token
// after the number then fails to be a separator.
func (s *lineScanner) int32() (int32, bool) {
	s.skipSpace()
	p, i := s.p, s.i
	neg := i < len(p) && p[i] == '-'
	if neg {
		i++
	}
	if i == len(p) || p[i] < '0' || p[i] > '9' {
		return 0, false
	}
	var v int64
	if p[i] == '0' {
		i++
	} else {
		for ; i < len(p) && p[i] >= '0' && p[i] <= '9'; i++ {
			v = 10*v + int64(p[i]-'0')
			if v > 1<<31 {
				return 0, false
			}
		}
	}
	if neg {
		v = -v
	}
	if v != int64(int32(v)) {
		return 0, false
	}
	s.i = i
	return int32(v), true
}

// intArray reads null (nil) or an array of int32s appended to arena.Ints.
func (s *lineScanner) intArray(arena *Arena) ([]int32, bool) {
	s.skipSpace()
	if len(s.p)-s.i >= 4 && string(s.p[s.i:s.i+4]) == "null" {
		s.i += 4
		return nil, true
	}
	if !s.next('[') {
		return nil, false
	}
	from := len(arena.Ints)
	if !s.next(']') {
		for {
			v, ok := s.int32()
			if !ok {
				return nil, false
			}
			arena.Ints = append(arena.Ints, v)
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return nil, false
			}
		}
	}
	return arena.Ints[from:len(arena.Ints):len(arena.Ints)], true
}
