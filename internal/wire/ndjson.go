package wire

import "strconv"

// The NDJSON form of the two records the ingest shim carries: the node
// line {"u":…,"w":…,"adj":[…],"ew":[…]} and the assignment line
// {"u":…,"b":…}. The writers produce exactly the bytes encoding/json's
// Encoder produces for the client's and the server's structs of those
// shapes; the parsers recognise a strict canonical subset of the lines
// and leave everything else to encoding/json, so the accepted language,
// the decoded values and the error text stay encoding/json's. Each
// parser reads its line in one pass by index, with no scanner state
// beyond the position; its digit loop sums without a check, and the
// digit count, a leading zero and the int32 range are checked once
// behind it. The server's ingest shim parses node lines and the
// client's reply reader assignment lines.
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
//
// A key is the raw bytes between its quotes, so an escaped spelling
// never equals a plain one. The lists are appended to a local copy of
// arena.Ints, which is stored back only once the whole line has been
// accepted.
func ParseNodeLine(line []byte, arena *Arena) (Node, bool) {
	p, ints := line, arena.Ints
	var u, w int32
	adj, ew := nilSpan, nilSpan
	var seen uint8
	i := skipSpace(p, 0)
	if i == len(p) || p[i] != '{' {
		return Node{}, false
	}
	if i = skipSpace(p, i+1); i < len(p) && p[i] == '}' {
		i++
	} else {
		for {
			if i == len(p) || p[i] != '"' {
				return Node{}, false
			}
			var bit uint8
			switch k := p[i+1:]; {
			case len(k) >= 2 && string(k[:2]) == `u"`:
				bit, i = 1, i+3
			case len(k) >= 4 && string(k[:4]) == `adj"`:
				bit, i = 4, i+5
			case len(k) >= 2 && string(k[:2]) == `w"`:
				bit, i = 2, i+3
			case len(k) >= 3 && string(k[:3]) == `ew"`:
				bit, i = 8, i+4
			default:
				return Node{}, false
			}
			if seen&bit != 0 {
				return Node{}, false
			}
			seen |= bit
			if i = skipSpace(p, i); i == len(p) || p[i] != ':' {
				return Node{}, false
			}
			i = skipSpace(p, i+1)
			var ok bool
			switch bit {
			case 1:
				u, i, ok = parseInt32(p, i)
			case 2:
				w, i, ok = parseInt32(p, i)
			default:
				list := &adj
				if bit == 8 {
					list = &ew
				}
				if len(p)-i >= 4 && string(p[i:i+4]) == "null" {
					i, ok = i+4, true
					break
				}
				from := len(ints)
				if ints, i, ok = appendIntList(p, i, ints); ok {
					*list = span{from, len(ints)}
				}
			}
			if !ok {
				return Node{}, false
			}
			if i = skipSpace(p, i); i < len(p) && p[i] == ',' {
				i = skipSpace(p, i+1)
				continue
			}
			if i == len(p) || p[i] != '}' {
				return Node{}, false
			}
			i++
			break
		}
	}
	if skipSpace(p, i) != len(p) {
		return Node{}, false
	}
	arena.Ints = ints
	return Node{U: u, W: w, Adj: adj.of(ints), EW: ew.of(ints)}, true
}

// ParseAssignLine recognises an assignment line of the canonical
// subset in one pass, as ParseNodeLine does; on false the caller
// decodes the line with encoding/json.
func ParseAssignLine(line []byte) (u, b int32, ok bool) {
	p := line
	var seen uint8
	i := skipSpace(p, 0)
	if i == len(p) || p[i] != '{' {
		return 0, 0, false
	}
	if i = skipSpace(p, i+1); i < len(p) && p[i] == '}' {
		i++
	} else {
		for {
			if i+2 >= len(p) || p[i] != '"' || p[i+2] != '"' {
				return 0, 0, false
			}
			var bit uint8
			switch p[i+1] {
			case 'u':
				bit = 1
			case 'b':
				bit = 2
			default:
				return 0, 0, false
			}
			if seen&bit != 0 {
				return 0, 0, false
			}
			seen |= bit
			if i = skipSpace(p, i+3); i == len(p) || p[i] != ':' {
				return 0, 0, false
			}
			i = skipSpace(p, i+1)
			if bit == 1 {
				u, i, ok = parseInt32(p, i)
			} else {
				b, i, ok = parseInt32(p, i)
			}
			if !ok {
				return 0, 0, false
			}
			if i = skipSpace(p, i); i < len(p) && p[i] == ',' {
				i = skipSpace(p, i+1)
				continue
			}
			if i == len(p) || p[i] != '}' {
				return 0, 0, false
			}
			i++
			break
		}
	}
	if skipSpace(p, i) != len(p) {
		return 0, 0, false
	}
	return u, b, true
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(p []byte, i int) int {
	for i < len(p) && p[i] <= ' ' && (p[i] == ' ' || p[i] == '\t' || p[i] == '\r' || p[i] == '\n') {
		i++
	}
	return i
}

// parseInt32 reads an integer at p[i:] and returns the index behind its
// digits; see toInt32 for what it accepts.
func parseInt32(p []byte, i int) (int32, int, bool) {
	neg := i < len(p) && p[i] == '-'
	if neg {
		i++
	}
	d := i
	var v uint64
	v, i = digits(p, i)
	x, ok := toInt32(p, d, i, v, neg)
	return x, i, ok
}

// digits sums the decimal digits from p[i] on, without a check, and
// returns the sum and the index of the first byte that is not a digit.
func digits(p []byte, i int) (uint64, int) {
	var v uint64
	for ; i < len(p); i++ {
		c := p[i] - '0'
		if c > 9 {
			break
		}
		v = 10*v + uint64(c)
	}
	return v, i
}

// toInt32 checks once what a digit loop read: the digits p[from:to],
// their sum v (wrapped if there were more than ten) and the sign must
// spell -?(0|[1-9][0-9]*) within int32. The loop stops at the first
// non-digit, so a fraction or an exponent is left unread and then fails
// to be a separator.
func toInt32(p []byte, from, to int, v uint64, neg bool) (int32, bool) {
	if n := to - from; n == 0 || n > 10 || (n > 1 && p[from] == '0') {
		return 0, false
	}
	if neg {
		return int32(-int64(v)), v <= 1<<31
	}
	return int32(v), v < 1<<31
}

// appendIntList reads an array of int32s at p[i:] and appends its
// values to ints. It is a function of its own, called once a list, so
// that its digit loop keeps the running sum in a register.
func appendIntList(p []byte, i int, ints []int32) ([]int32, int, bool) {
	if i == len(p) || p[i] != '[' {
		return ints, i, false
	}
	if i = skipSpace(p, i+1); i < len(p) && p[i] == ']' {
		return ints, i + 1, true
	}
	for {
		neg := i < len(p) && p[i] == '-'
		if neg {
			i++
		}
		d := i
		var v uint64
		v, i = digits(p, i)
		x, ok := toInt32(p, d, i, v, neg)
		if !ok {
			return ints, i, false
		}
		ints = append(ints, x)
		if i < len(p) && p[i] <= ' ' {
			i = skipSpace(p, i)
		}
		if i < len(p) && p[i] == ',' {
			if i++; i < len(p) && p[i] <= ' ' {
				i = skipSpace(p, i)
			}
			continue
		}
		if i == len(p) || p[i] != ']' {
			return ints, i, false
		}
		return ints, i + 1, true
	}
}

// span is a list's place in the arena's ints; a negative end stands
// for a null or absent list.
type span [2]int

var nilSpan = span{0, -1}

// of returns the list the span marks in ints, capped at its end.
func (s span) of(ints []int32) []int32 {
	if s[1] < 0 {
		return nil
	}
	return ints[s[0]:s[1]:s[1]]
}
