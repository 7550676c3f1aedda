package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteSeedCorpus regenerates the committed fuzz seed corpora when
// OMS_WRITE_CORPUS=1. The files mirror the f.Add seeds so CI fuzz jobs
// start from meaningful inputs even with an empty build cache.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("OMS_WRITE_CORPUS") == "" {
		t.Skip("set OMS_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(dir, name string, data []byte) {
		full := filepath.Join("testdata", "fuzz", dir)
		if err := os.MkdirAll(full, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(full, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write("FuzzWireNode", "plain", AppendNodePayload(nil, 0, 1, []int32{1, 2}, nil))
	write("FuzzWireNode", "weighted", AppendNodePayload(nil, 7, 3, []int32{9, 2, 2, 100000}, []int32{1, 2, 3, 4}))
	write("FuzzWireNode", "max-id", AppendNodePayload(nil, 1<<31-1, 1, nil, nil))
	write("FuzzWireNode", "truncated", []byte{TypeNode})
	write("FuzzWireNode", "overlong-varint", []byte{TypeNode, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	write("FuzzWireNode", "junk", bytes.Repeat([]byte{0xff}, 32))
	for name, payload := range edgeVarintPayloads {
		write("FuzzWireNode", name, payload)
	}

	var good []byte
	good = AppendFrame(good, AppendStreamHeaderPayload(nil, StreamHeader{N: 4, M: 3}))
	good = AppendNodeFrame(good, 0, 1, []int32{1, 2}, nil)
	good = AppendNodeFrame(good, 1, 2, []int32{0}, []int32{5})
	write("FuzzWireFrames", "stream", good)
	write("FuzzWireFrames", "torn-tail", good[:len(good)-2])
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0x20
	write("FuzzWireFrames", "crc-corrupt", corrupt)
	write("FuzzWireFrames", "oversized-len", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	write("FuzzWireFrames", "short-header", bytes.Repeat([]byte{0x01}, 9))

	for name, line := range nodeLineSeeds {
		write("FuzzNodeLine", name, []byte(line))
	}
	for name, line := range assignLineSeeds {
		write("FuzzAssignLine", name, []byte(line))
	}
}
