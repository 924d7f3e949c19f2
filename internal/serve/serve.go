// Package serve is the assembly-as-a-service layer: a long-running job
// manager with an HTTP/JSON API (cmd/elbad) on top of the pipeline's stage
// graph. Datasets are uploaded once and addressed by content checksum; jobs
// queue behind a bounded admission gate, run on a fixed pool of workers with
// per-job isolation (own engine, world, trace and metric set, cancellable
// context), and stream per-stage progress as server-sent events. The
// content-addressed artifact cache (Cache) is the service's reuse engine:
// parameter-sweep jobs whose option prefix through Alignment matches a
// committed entry resume from the shared post-Alignment checkpoint instead
// of re-aligning.
//
// Endpoints (all request/response bodies JSON unless noted):
//
//	GET    /healthz           liveness probe ("ok")
//	POST   /datasets          upload a FASTA body; returns {id, reads, bases}
//	GET    /datasets          list uploaded datasets
//	POST   /jobs              submit a JobSpec; 202 {id} or 429 when the queue is full
//	GET    /jobs              list job statuses, submission order
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel (queued or running); 409 if already terminal
//	GET    /jobs/{id}/events  SSE progress stream (replay + live; ends at a terminal state)
//	GET    /jobs/{id}/contigs contigs as FASTA (once done)
//	GET    /jobs/{id}/manifest RUN.json run manifest (once done)
//	GET    /jobs/{id}/trace   Perfetto trace JSON (once done)
//	GET    /cache             artifact-cache occupancy and hit/miss/eviction counters
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"context"

	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/readsim"
)

// Config parameterizes a Server.
type Config struct {
	// Queue bounds the admission gate: jobs waiting to run beyond the ones
	// executing. A full queue rejects POST /jobs with 429 (back-pressure,
	// not unbounded memory). Default 8.
	Queue int
	// Workers is the number of jobs executing concurrently. Each job runs
	// its own P-rank world, so this multiplies CPU footprint. Default 1.
	Workers int
	// CacheDir enables the content-addressed artifact cache under this
	// directory ("" disables caching).
	CacheDir string
	// CacheBudget bounds the cache's on-disk bytes (LRU eviction; <= 0
	// means unlimited). Ignored without CacheDir.
	CacheBudget int64
	// DefaultP is the rank count for jobs that do not set one. Default 4.
	DefaultP int
	// MaxUpload bounds a POST /datasets body in bytes. Default 1 GiB.
	MaxUpload int64
}

// dataset is one uploaded read set, addressed by content checksum so
// re-uploading is idempotent and the id slots straight into the cache key.
type dataset struct {
	ID    string `json:"id"`
	Reads int    `json:"reads"`
	Bases int64  `json:"bases"`
	reads [][]byte
}

// Server owns the job table, the worker pool and the cache. Create with
// New, serve Handler() on any http.Server, Close on shutdown.
type Server struct {
	cfg   Config
	cache *Cache
	mux   *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	queue  chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for GET /jobs
	datasets map[string]*dataset
	nextID   int
}

// New builds a Server and starts its workers.
func New(cfg Config) (*Server, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.DefaultP <= 0 {
		cfg.DefaultP = 4
	}
	if cfg.MaxUpload <= 0 {
		cfg.MaxUpload = 1 << 30
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    make(chan *Job, cfg.Queue),
		jobs:     map[string]*Job{},
		datasets: map[string]*dataset{},
	}
	if cfg.CacheDir != "" {
		c, err := OpenCache(cfg.CacheDir, cfg.CacheBudget)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.routes()
	for range cfg.Workers {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache returns the artifact cache (nil when disabled) — test and
// operational introspection.
func (s *Server) Cache() *Cache { return s.cache }

// Close cancels every running job, stops the workers and waits for them.
// Queued jobs are left in the queue (their worlds never started); in-flight
// HTTP requests are the http.Server's to drain.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.run(j)
		}
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("POST /datasets", s.handleUpload)
	s.mux.HandleFunc("GET /datasets", s.handleDatasets)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/contigs", s.handleContigs)
	s.mux.HandleFunc("GET /jobs/{id}/manifest", s.handleManifest)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /cache", s.handleCache)
}

// writeJSON writes v as a compact JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the API's error shape.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxUpload+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxUpload {
		writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUpload)
		return
	}
	reads, err := fasta.ReadSeqs(bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing FASTA: %v", err)
		return
	}
	if len(reads) == 0 {
		writeError(w, http.StatusBadRequest, "no sequences in upload")
		return
	}
	var bases int64
	for _, seq := range reads {
		bases += int64(len(seq))
	}
	ds := &dataset{ID: obs.ChecksumSeqs(reads), Reads: len(reads), Bases: bases, reads: reads}
	s.mu.Lock()
	if _, ok := s.datasets[ds.ID]; !ok {
		s.datasets[ds.ID] = ds
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, ds)
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*dataset, 0, len(s.datasets))
	for _, ds := range s.datasets {
		list = append(list, ds)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeJSON(w, http.StatusOK, list)
}

// The largest world a job spec may ask for. Every rank is a goroutine with
// its own mailboxes and matrix blocks, and every thread builds its own
// aligner, so an unbounded p or threads lets one request exhaust the host
// (p = 4096 is a perfect square). 64 is the largest P the equivalence matrix
// runs. cmd/elba stays unbounded: its operator owns the host.
const (
	MaxJobP       = 64
	MaxJobThreads = 64
)

// maxSpecBytes bounds a POST /jobs body.
const maxSpecBytes = 1 << 20

// decodeJobSpec parses a POST /jobs body: one JSON object of at most
// maxSpecBytes with no unknown fields.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(io.LimitReader(r, maxSpecBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// Options resolves the spec's parameters through pipeline.Resolve — the
// function cmd/elba's flags go through too, so one description means one
// option set at either door. defaultP stands in for an unset P. A p or
// threads above MaxJobP or MaxJobThreads is refused, naming the field,
// before anything is resolved.
func (spec JobSpec) Options(defaultP int) (pipeline.Options, error) {
	var errs []error
	if spec.P > MaxJobP {
		errs = append(errs, fmt.Errorf("serve: JobSpec p = %d: above this daemon's limit of %d ranks", spec.P, MaxJobP))
	}
	if spec.Threads > MaxJobThreads {
		errs = append(errs, fmt.Errorf("serve: JobSpec threads = %d: above this daemon's limit of %d workers per rank", spec.Threads, MaxJobThreads))
	}
	if err := errors.Join(errs...); err != nil {
		return pipeline.Options{}, err
	}
	p := spec.P
	if p == 0 {
		p = defaultP
	}
	return pipeline.Resolve(spec.Preset, p, pipeline.Overrides{
		Threads: spec.Threads, K: spec.K, XDrop: spec.XDrop,
		MinOverlap: spec.MinOverlap, MaxOverhang: spec.MaxOverhang,
		TRFuzz: spec.TRFuzz, TRMaxIter: spec.TRMaxIter, Backend: spec.Backend,
	})
}

// jobInputs resolves a spec to (options, reads): the validation half of
// admission, run before the job is ever queued so a bad spec is a 400 at
// submit time, not a failed job later. A simulated input obeys the same
// byte bound as an uploaded one (Config.MaxUpload).
func (s *Server) jobInputs(spec JobSpec) (pipeline.Options, [][]byte, error) {
	switch {
	case spec.Dataset != "" && spec.Preset != "":
		return pipeline.Options{}, nil, fmt.Errorf("dataset and preset are mutually exclusive")
	case spec.Dataset == "" && spec.Preset == "":
		return pipeline.Options{}, nil, fmt.Errorf("need dataset or preset")
	}
	opt, err := spec.Options(s.cfg.DefaultP)
	if err != nil {
		return opt, nil, err
	}
	if spec.Dataset != "" {
		s.mu.Lock()
		ds := s.datasets[spec.Dataset]
		s.mu.Unlock()
		if ds == nil {
			return opt, nil, fmt.Errorf("unknown dataset %q (POST it to /datasets first)", spec.Dataset)
		}
		return opt, ds.reads, nil
	}
	pr, err := readsim.ParsePreset(spec.Preset)
	if err != nil {
		return opt, nil, err
	}
	size := spec.GenomeLen
	if size == 0 {
		size = 100000
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	if err := readsim.CheckSize(pr, size, s.cfg.MaxUpload); err != nil {
		return opt, nil, err
	}
	return opt, readsim.Seqs(readsim.Generate(pr, size, seed).Reads), nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parsing job spec: %v", err)
		return
	}
	opt, reads, err := s.jobInputs(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), spec, opt, reads)
	select {
	case s.queue <- j:
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID})
	default:
		s.nextID--
		s.mu.Unlock()
		// Admission control: a bounded queue sheds load explicitly instead
		// of buffering unboundedly; the client retries with backoff.
		writeError(w, http.StatusTooManyRequests, "job queue full (%d waiting); retry later", s.cfg.Queue)
	}
}

// job looks up a path's {id}; a nil return means the 404 was written.
func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	list := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		list = append(list, s.jobs[id])
	}
	s.mu.Unlock()
	statuses := make([]JobStatus, len(list))
	for i, j := range list {
		statuses[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	if !j.requestCancel() {
		writeError(w, http.StatusConflict, "job %s already %s", j.ID, j.Status().State)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents is the SSE progress stream: replay the job's event log from
// the start, then stream live events as they land, ending after the
// terminal event. Disconnection is detected via the request context; the
// job is never slowed by a slow consumer (events are buffered in the job,
// not the connection).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	seq := 0
	for {
		evs, terminal, changed := j.eventsSince(seq)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		if len(evs) > 0 {
			fl.Flush()
			seq += len(evs)
		}
		if terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

// finished returns the job's result if it is done; otherwise writes the
// explanatory non-200 and returns nils.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) (*pipeline.Output, *obs.Manifest, *obs.Trace) {
	j := s.job(w, r)
	if j == nil {
		return nil, nil, nil
	}
	out, man, tr := j.result()
	if out == nil {
		st := j.Status()
		if st.State.terminal() {
			writeError(w, http.StatusConflict, "job %s %s: no output", j.ID, st.State)
		} else {
			writeError(w, http.StatusConflict, "job %s is %s; output exists once done", j.ID, st.State)
		}
		return nil, nil, nil
	}
	return out, man, tr
}

func (s *Server) handleContigs(w http.ResponseWriter, r *http.Request) {
	out, _, _ := s.finished(w, r)
	if out == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	core.WriteContigs(w, out.Contigs)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	_, man, _ := s.finished(w, r)
	if man == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	man.WriteJSON(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	_, _, tr := s.finished(w, r)
	if tr == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w)
}

func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]bool{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, s.cache.Stats())
}
