package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection timeouts: header reads
// and idle keep-alives are bounded, writes are not (the SSE event stream
// outlives any fixed write deadline).
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":8080", http.NotFoundHandler())
	if hs.Addr != ":8080" || hs.Handler == nil {
		t.Fatalf("server on %q with handler %v, want :8080 and the API handler", hs.Addr, hs.Handler)
	}
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want both set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut /jobs/{id}/events streams; want 0", hs.WriteTimeout)
	}
}
