package cluster

// Node.peer's body read: a body with a Content-Length is read into one
// buffer of exactly that length, an unlabelled one by growth, and a
// Content-Length past maxExactRead is not allocated up front, so a peer
// announcing a length it never sends costs this node nothing but a
// failed read.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// peerNode builds a node whose one peer, "owner", is served by h.
func peerNode(t *testing.T, h http.HandlerFunc) *Node {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	n, err := NewNode(Config{Self: "owner", Peers: map[string]string{"owner": ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPeerReadsBodyAtItsLength(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	for _, tc := range []struct {
		name    string
		labeled bool
	}{{"content-length", true}, {"chunked", false}} {
		t.Run(tc.name, func(t *testing.T) {
			n := peerNode(t, func(w http.ResponseWriter, r *http.Request) {
				if tc.labeled {
					w.Header().Set("Content-Length", fmt.Sprint(len(body)))
				}
				w.Write(body)
			})
			resp, err := n.peer(context.Background(), "owner", "/v1/grid", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp.body, body) {
				t.Fatalf("read %d bytes, want the peer's %d", len(resp.body), len(body))
			}
			if tc.labeled && cap(resp.body) != len(body) {
				t.Errorf("buffer capacity %d for a %d-byte body with its Content-Length, want exactly its length", cap(resp.body), len(body))
			}
		})
	}
}

func TestPeerDoesNotAllocateAnnouncedLength(t *testing.T) {
	const announced = 256 << 20
	n := peerNode(t, func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n{\"benchmark\":", announced)
		buf.Flush()
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := n.peer(context.Background(), "owner", "/v1/grid", nil, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a body cut short of its Content-Length was read without an error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxExactRead {
		t.Errorf("reading a body announced at %d bytes allocated %d, want under the %d-byte cap", announced, grew, maxExactRead)
	}
}
