// Command elbad is the assembly daemon: it serves the internal/serve HTTP
// API, accepting uploaded datasets and assembly jobs, running them through
// the pipeline on a bounded worker pool, and reusing post-Alignment
// artifacts across parameter-sweep jobs via the content-addressed cache.
//
//	elbad -listen :8080 -cache /var/cache/elba -cache-budget 2147483648
//
// Exit codes: 0 after a clean shutdown (SIGINT/SIGTERM), 1 on serve or
// startup error, 2 on flag errors. The full table lives in OPERATIONS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

// Connection timeouts. readHeaderTimeout drops a client that opens a
// connection and trickles its request headers; idleTimeout reaps idle
// keep-alive connections. There is deliberately no WriteTimeout:
// /jobs/{id}/events is a server-sent event stream that stays open for the
// job's lifetime. Request bodies are capped by the handlers (uploads at
// serve.Config.MaxUpload, job specs at 1 MiB).
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	listen := flag.String("listen", ":8080", "address to serve the HTTP API on")
	queue := flag.Int("queue", 8, "max queued jobs before POST /jobs returns 429")
	workers := flag.Int("workers", 1, "jobs executed concurrently")
	cacheDir := flag.String("cache", "", "artifact cache directory (empty: caching off)")
	cacheBudget := flag.Int64("cache-budget", 0, "artifact cache size budget in bytes (0: unlimited)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "elbad: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		Queue:       *queue,
		Workers:     *workers,
		CacheDir:    *cacheDir,
		CacheBudget: *cacheBudget,
	})
	if err != nil {
		log.Fatalf("elbad: %v", err)
	}

	hs := newHTTPServer(*listen, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("elbad: listening on %s (queue %d, workers %d, cache %q)",
		*listen, *queue, *workers, *cacheDir)

	select {
	case <-ctx.Done():
		log.Printf("elbad: shutting down")
		sdCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sdCtx); err != nil {
			log.Printf("elbad: shutdown: %v", err)
		}
		srv.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			log.Fatalf("elbad: %v", err)
		}
	}
}
