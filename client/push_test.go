package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"oms/internal/wire"
)

// ringNodes is an n-node cycle with chords of stride s: a different
// graph per stride, so replies from different sessions differ.
func ringNodes(n, s int32) []Node {
	nodes := make([]Node, n)
	for u := range n {
		nodes[u] = Node{U: u, Adj: []int32{(u + n - 1) % n, (u + 1) % n, (u + s) % n, (u + n - s) % n}}
	}
	return nodes
}

// pushAll creates a session over nodes and pushes them in chunks,
// alternating between clients (and so formats) from chunk to chunk.
func pushAll(ctx context.Context, clients []*Client, g int, nodes []Node, chunk int) ([][]Assignment, error) {
	n := int32(len(nodes))
	created, err := clients[0].Create(ctx, Spec{N: n, M: 2 * int64(n), K: int32(4 + g), Seed: uint64(g)})
	if err != nil {
		return nil, err
	}
	var replies [][]Assignment
	for i := 0; i < len(nodes); i += chunk {
		c := clients[(g+i/chunk)%len(clients)]
		as, err := c.Push(ctx, created.ID, nodes[i:min(i+chunk, len(nodes))])
		if err != nil {
			return nil, fmt.Errorf("session %d, chunk at %d: %w", g, i, err)
		}
		replies = append(replies, as)
	}
	return replies, nil
}

// TestConcurrentPushesMatchSequential: goroutines sharing one binary and
// one NDJSON Client, each streaming its own session through both, get
// exactly the replies a sequential run gets — pooled push state never
// leaks between requests, formats or goroutines. An in-band error read
// before all that traffic recycled the pooled state keeps its message.
func TestConcurrentPushesMatchSequential(t *testing.T) {
	url := testServer(t)
	ctx := context.Background()
	clients := []*Client{New(url), New(url, WithBinary(true))}
	const goroutines, n, chunk = 8, 512, 48

	bad, err := clients[1].Create(ctx, Spec{N: 4, M: 3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := clients[1].Push(ctx, bad.ID, append(pathNodes()[:2], Node{U: 99}))
	var inband *Error
	if !errors.As(err, &inband) || inband.Status != 0 || inband.Message == "" {
		t.Fatalf("want an in-band error, got %v", err)
	}
	wantMsg, wantPrefix := strings.Clone(inband.Message), slices.Clone(prefix)

	want := make([][][]Assignment, goroutines)
	for g := range goroutines {
		if want[g], err = pushAll(ctx, clients[:1], g, ringNodes(n, int32(3+g)), chunk); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][][]Assignment, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = pushAll(ctx, clients, g, ringNodes(n, int32(3+g)), chunk)
		}()
	}
	wg.Wait()
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if len(got[g]) != len(want[g]) {
			t.Fatalf("session %d: %d replies, want %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if !slices.Equal(got[g][i], want[g][i]) {
				t.Fatalf("session %d, reply %d differs from the sequential run:\n got %v\nwant %v",
					g, i, got[g][i], want[g][i])
			}
		}
	}

	if inband.Message != wantMsg {
		t.Fatalf("in-band error message changed after the pooled state was recycled: %q, want %q",
			inband.Message, wantMsg)
	}
	if !slices.Equal(prefix, wantPrefix) {
		t.Fatalf("accepted prefix changed after the pooled state was recycled: %v, want %v", prefix, wantPrefix)
	}
}

// TestReleaseDropsOversizedScratch: a state goes back to the pool
// without any buffer that grew past maxPooledScratch, and keeps the
// ones that did not.
func TestReleaseDropsOversizedScratch(t *testing.T) {
	big := pushState{rd: wire.NewReader(nil), body: make([]byte, 0, maxPooledScratch+1)}
	big.us, big.bs = make([]int32, 0, maxPooledScratch/4+1), make([]int32, 0, maxPooledScratch/4+1)
	big.rd.Arena.Raw = make([]byte, 0, maxPooledScratch+1)
	big.release()
	if big.body != nil || big.us != nil || big.bs != nil || big.rd != nil {
		t.Fatalf("oversized scratch pooled: body %d, us %d, bs %d, reader %v",
			cap(big.body), cap(big.us), cap(big.bs), big.rd != nil)
	}

	small := pushState{rd: wire.NewReader(nil)}
	body := small.encode(true, pathNodes())
	small.release()
	if cap(small.body) < len(body) || small.rd == nil {
		t.Fatalf("warm scratch dropped: body %d, reader %v", cap(small.body), small.rd != nil)
	}
}

// TestPushFollowsRedirect: a 307 in front of the ingest route makes
// net/http rewind the request body through GetBody and send it again;
// the replayed body must be the encoded nodes, in either format.
func TestPushFollowsRedirect(t *testing.T) {
	url := testServer(t)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, url+r.URL.Path, http.StatusTemporaryRedirect)
	}))
	t.Cleanup(front.Close)
	ctx := context.Background()
	for _, binary := range []bool{false, true} {
		direct := New(url, WithBinary(binary))
		redirected := New(front.URL, WithBinary(binary))
		var replies [2][]Assignment
		for i, c := range []*Client{direct, redirected} {
			created, err := direct.Create(ctx, Spec{N: 4, M: 3, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			if replies[i], err = c.Push(ctx, created.ID, pathNodes()); err != nil {
				t.Fatalf("binary=%v: %v", binary, err)
			}
		}
		if len(replies[1]) != 4 || !slices.Equal(replies[0], replies[1]) {
			t.Fatalf("binary=%v: redirected push %v, direct push %v", binary, replies[1], replies[0])
		}
	}
}
