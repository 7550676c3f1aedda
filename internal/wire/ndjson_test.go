package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// jsonNode and jsonAssign have the field tags of the structs the NDJSON
// shim encodes and decodes with encoding/json: client.Node and
// store.PushNode for a node line, the client's reply line for an
// assignment (its error field included).
type jsonNode struct {
	U   int32   `json:"u"`
	W   int32   `json:"w,omitempty"`
	Adj []int32 `json:"adj"`
	EW  []int32 `json:"ew,omitempty"`
}

type jsonAssign struct {
	U     int32  `json:"u"`
	B     int32  `json:"b"`
	Error string `json:"error"`
}

// nodeLineSeeds are FuzzNodeLine's seeds: canonical lines, whitespace
// and key-order variants, and one line for every way out of the
// canonical subset, among them the two acceptance bugs an early parser
// had (a duplicate after a parsed value, a truncated object).
var nodeLineSeeds = map[string]string{
	"canonical":        `{"u":0,"adj":[1,2]}`,
	"weighted":         `{"u":7,"w":3,"adj":[9,2,2,100000],"ew":[1,2,3,4]}`,
	"extremes":         `{"u":2147483647,"w":-2147483648,"adj":[-2147483648,2147483647],"ew":[-1]}`,
	"adj-null":         `{"u":1,"adj":null}`,
	"adj-empty":        `{"u":1,"adj":[]}`,
	"zero-w-empty-ew":  `{"u":1,"w":0,"adj":[],"ew":[]}`,
	"whitespace":       " \t{ \"u\" :\r1 ,\"adj\" : [ 2 , 3 ]\n}\t \r",
	"key-order":        `{"ew":[5],"adj":[4],"w":2,"u":3}`,
	"empty-object":     `{}`,
	"minus-zero":       `{"u":-0,"adj":[-0]}`,
	"upper-key":        `{"U":1,"adj":[2]}`,
	"unknown-field":    `{"u":1,"adj":[2],"x":[{"y":null}]}`,
	"duplicate":        `{"u":1,"u":2,"adj":[]}`,
	"dup-after-value":  `{"u":1,"adj":[2],"u":3}`,
	"duplicate-list":   `{"adj":[1],"u":0,"adj":[2]}`,
	"exponent":         `{"u":1e3,"adj":[]}`,
	"fraction":         `{"u":1.0,"adj":[]}`,
	"leading-zero":     `{"u":01,"adj":[]}`,
	"2^31":             `{"u":2147483648,"adj":[]}`,
	"adj-below-int32":  `{"u":0,"adj":[-2147483649]}`,
	"null-scalar":      `{"u":null,"adj":[1]}`,
	"escaped-key":      `{"\u0075":1,"adj":[2]}`,
	"truncated":        `{"u":0,`,
	"trailing-comma":   `{"u":0,"adj":[1,]}`,
	"trailing-garbage": `{"u":0,"adj":[1]} x`,
	"second-object":    `{"u":0,"adj":[1]}{}`,
	"top-level-null":   `null`,
	"empty":            ``,
}

// assignLineSeeds are FuzzAssignLine's seeds, built the same way.
var assignLineSeeds = map[string]string{
	"canonical":        `{"u":5,"b":3}`,
	"extremes":         `{"u":-2147483648,"b":2147483647}`,
	"whitespace":       "\t{ \"u\" : 5 ,\r\"b\":3 } ",
	"key-order":        `{"b":1,"u":2}`,
	"minus-zero":       `{"u":-0,"b":-0}`,
	"upper-key":        `{"U":1,"b":2}`,
	"unknown-field":    `{"u":1,"b":2,"x":0}`,
	"duplicate":        `{"u":1,"b":2,"u":3}`,
	"exponent":         `{"u":1e3,"b":0}`,
	"leading-zero":     `{"u":01,"b":0}`,
	"2^31":             `{"u":2147483648,"b":0}`,
	"null-scalar":      `{"u":null,"b":1}`,
	"escaped-key":      `{"\u0062":1,"u":2}`,
	"truncated":        `{"u":0,`,
	"array-value":      `{"u":[1,],"b":0}`,
	"error-line":       `{"error":"boom"}`,
	"trailing-garbage": `{"u":1,"b":2}]`,
}

// TestAppendLinesMatchEncoder: the hand-written lines are json.Encoder's
// bytes at the corners of the shapes — nil and empty lists, zero weight,
// empty edge weights, the int32 extremes in every position.
func TestAppendLinesMatchEncoder(t *testing.T) {
	lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
	for _, nd := range []jsonNode{
		{},
		{U: 1, Adj: []int32{}},
		{U: 1, W: 0, Adj: []int32{2}, EW: []int32{}},
		{U: 1, W: 5, Adj: []int32{2, 3}, EW: []int32{7, 8}},
		{U: hi, W: lo, Adj: []int32{lo, hi, 0, -1}, EW: []int32{hi, lo}},
		{U: lo, W: hi, Adj: nil, EW: []int32{0}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(nd); err != nil {
			t.Fatal(err)
		}
		if got := AppendNodeLine(nil, nd.U, nd.W, nd.Adj, nd.EW); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("AppendNodeLine(%+v) = %q, json.Encoder %q", nd, got, want.Bytes())
		}
	}
	for _, a := range [][2]int32{{0, 0}, {lo, hi}, {hi, lo}, {-1, 7}} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(struct {
			U int32 `json:"u"`
			B int32 `json:"b"`
		}{a[0], a[1]}); err != nil {
			t.Fatal(err)
		}
		if got := AppendAssignLine(nil, a[0], a[1]); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("AppendAssignLine(%d, %d) = %q, json.Encoder %q", a[0], a[1], got, want.Bytes())
		}
	}
}

// TestParseLinesFallBack: every seed outside the canonical subset is
// refused, so it takes the encoding/json path, and a refused line
// leaves the arena as it was.
func TestParseLinesFallBack(t *testing.T) {
	inSubset := map[string]bool{
		"canonical": true, "weighted": true, "extremes": true, "adj-null": true,
		"adj-empty": true, "zero-w-empty-ew": true, "whitespace": true,
		"key-order": true, "empty-object": true, "minus-zero": true,
	}
	for name, line := range nodeLineSeeds {
		arena := Arena{Ints: []int32{-7}}
		_, ok := ParseNodeLine([]byte(line), &arena)
		if ok != inSubset[name] {
			t.Errorf("node line %s %q: parsed %v, want %v", name, line, ok, inSubset[name])
		}
		if !ok && len(arena.Ints) != 1 {
			t.Errorf("node line %s: a refused line left %d ints in the arena, want 1", name, len(arena.Ints))
		}
	}
	for name, line := range assignLineSeeds {
		_, _, ok := ParseAssignLine([]byte(line))
		if ok != inSubset[name] {
			t.Errorf("assign line %s %q: parsed %v, want %v", name, line, ok, inSubset[name])
		}
	}
}

// FuzzNodeLine holds the node line's hand-written half to encoding/json
// on arbitrary bytes. A line ParseNodeLine accepts, json.Unmarshal
// accepts with the same values (adj and ew compared after the shim's
// nil/empty normalisation), and the arena holds exactly its lists; a
// refused line leaves the arena as it was. For any node json.Unmarshal
// decodes from the line, AppendNodeLine writes json.Encoder's bytes,
// and ParseNodeLine reads them back.
func FuzzNodeLine(f *testing.F) {
	for _, line := range nodeLineSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		// The parse starts behind three live ints, as the second node of
		// a chunk does, so a rollback to zero would show.
		arena := Arena{Ints: []int32{-7, -8, -9}}
		nd, ok := ParseNodeLine(line, &arena)
		var ref jsonNode
		refErr := json.Unmarshal(line, &ref)
		if !ok {
			if len(arena.Ints) != 3 {
				t.Fatalf("refused %q, left %d ints in the arena, want 3", line, len(arena.Ints))
			}
		} else {
			if refErr != nil {
				t.Fatalf("ParseNodeLine accepted %q, json.Unmarshal refuses it: %v", line, refErr)
			}
			if nd.U != ref.U || nd.W != ref.W || !equalIntSlices(nd.Adj, ref.Adj) || !equalIntSlices(nd.EW, ref.EW) {
				t.Fatalf("%q: ParseNodeLine %+v, json.Unmarshal %+v", line, nd, ref)
			}
			if len(arena.Ints) != 3+len(nd.Adj)+len(nd.EW) {
				t.Fatalf("%q: arena grew by %d ints for %d list entries", line, len(arena.Ints)-3, len(nd.Adj)+len(nd.EW))
			}
		}
		if refErr != nil {
			return
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		got := AppendNodeLine(nil, ref.U, ref.W, ref.Adj, ref.EW)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendNodeLine(%+v) = %q, json.Encoder %q", ref, got, want.Bytes())
		}
		var arena2 Arena
		back, ok := ParseNodeLine(got, &arena2)
		if !ok || back.U != ref.U || back.W != ref.W || !equalIntSlices(back.Adj, ref.Adj) || !equalIntSlices(back.EW, ref.EW) {
			t.Fatalf("written line %q parsed back as %+v (ok %v), want %+v", got, back, ok, ref)
		}
	})
}

// FuzzAssignLine is FuzzNodeLine for the assignment line, against the
// client's reply struct: an accepted line is never an error line.
func FuzzAssignLine(f *testing.F) {
	for _, line := range assignLineSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		u, b, ok := ParseAssignLine(line)
		var ref jsonAssign
		refErr := json.Unmarshal(line, &ref)
		if ok && (refErr != nil || ref.Error != "" || u != ref.U || b != ref.B) {
			t.Fatalf("ParseAssignLine(%q) = (%d, %d), json.Unmarshal %+v, %v", line, u, b, ref, refErr)
		}
		if refErr != nil {
			return
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(struct {
			U int32 `json:"u"`
			B int32 `json:"b"`
		}{ref.U, ref.B}); err != nil {
			t.Fatal(err)
		}
		got := AppendAssignLine(nil, ref.U, ref.B)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendAssignLine(%d, %d) = %q, json.Encoder %q", ref.U, ref.B, got, want.Bytes())
		}
		if bu, bb, ok := ParseAssignLine(got); !ok || bu != ref.U || bb != ref.B {
			t.Fatalf("written line %q parsed back as (%d, %d, %v)", got, bu, bb, ok)
		}
	})
}
