package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oms/internal/gen"
	"oms/internal/store"
	"oms/internal/wal"
	"oms/internal/wire"
)

// TestRecoverRefusesOtherGamma: a persisted spec.json that carries a
// Fennel exponent other than 1.5 is refused before replay, so no logged
// assignment is re-derived under another objective. The other session in
// the store recovers, the error names the refused one, and its log.wal
// stays byte for byte as it was.
func TestRecoverRefusesOtherGamma(t *testing.T) {
	ctx := context.Background()
	g := gen.ErdosRenyi(400, 1600, 3)
	dir := t.TempDir()
	st, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr := testManager(t, Config{Store: st})
	var ids []string
	for range 2 {
		s, err := mgr.Create(store.CreateSpec{N: g.NumNodes(), M: g.NumEdges(), K: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var nodes []store.PushNode
		for u := int32(0); u < 200; u++ {
			adj := g.Neighbors(u)
			nodes = append(nodes, store.PushNode{U: u, W: 1, Adj: adj, Frame: wire.AppendNodeFrame(nil, u, 1, adj, nil)})
		}
		if _, err := s.Ingest(ctx, mgr.Pool(), nodes); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	mgr.Close()

	refused := filepath.Join(dir, "sessions", ids[1])
	specPath := filepath.Join(refused, "spec.json")
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		ID   string         `json:"id"`
		Spec map[string]any `json:"spec"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	env.Spec["gamma"] = 2
	if raw, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(specPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(refused, "log.wal")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	st, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mgr = testManager(t, Config{Store: st})
	n, err := mgr.RecoverSessions()
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), ids[1]) || !strings.Contains(err.Error(), "service: Fennel gamma 2") {
		t.Fatalf("recovery error %v, want one naming %s and its gamma", err, ids[1])
	}
	if _, err := mgr.Get(ids[0]); err != nil {
		t.Fatalf("ordinary session not recovered: %v", err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("refused session's log.wal changed: %d bytes, was %d", len(after), len(before))
	}
}
