package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// JobState is a job's lifecycle position: queued → running → one terminal
// state (done, failed, cancelled).
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state accepts no further transitions.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobSpec is the POST /jobs request body. Exactly one input is named: an
// uploaded dataset (by the id POST /datasets returned) or a simulation
// preset. Zero-valued parameters keep the preset/paper defaults, so a sweep
// submits the same spec varying only the swept field.
type JobSpec struct {
	Dataset   string `json:"dataset,omitempty"`    // uploaded dataset id (sha256:…)
	Preset    string `json:"preset,omitempty"`     // celegans | osativa | hsapiens
	GenomeLen int    `json:"genome_len,omitempty"` // preset genome length (default 100000)
	Seed      int64  `json:"seed,omitempty"`       // preset simulation seed (default 1)

	P           int    `json:"p,omitempty"`            // simulated ranks (perfect square ≤ MaxJobP; default 4)
	Threads     int    `json:"threads,omitempty"`      // intra-rank workers (≤ MaxJobThreads; 0: auto)
	K           int    `json:"k,omitempty"`            // k-mer length override
	XDrop       int32  `json:"xdrop,omitempty"`        // x-drop threshold override
	MinOverlap  int32  `json:"min_overlap,omitempty"`  // overlap-length floor override
	MaxOverhang int32  `json:"max_overhang,omitempty"` // overhang classification bound override
	TRFuzz      int32  `json:"tr_fuzz,omitempty"`      // transitive-reduction fuzz override
	TRMaxIter   int    `json:"tr_max_iter,omitempty"`  // transitive-reduction iteration cap override
	Backend     string `json:"backend,omitempty"`      // xdrop | wfa
}

// Event is one entry of a job's progress stream, replayed and then streamed
// live by GET /jobs/{id}/events (SSE: the Type field is the SSE event name,
// the JSON-encoded Event the data line).
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"` // queued|started|cache|stage_start|stage_end|done|failed|cancelled
	Stage  string `json:"stage,omitempty"`
	Detail string `json:"detail,omitempty"`
	WallMS int64  `json:"wall_ms,omitempty"`
	Time   string `json:"time"` // RFC 3339
}

// Job is one queued or executed assembly. All mutable fields are guarded by
// mu; changed is closed and replaced on every mutation, which is what lets
// any number of SSE streams wait for news without polling.
type Job struct {
	ID   string
	Spec JobSpec

	opt   pipeline.Options
	reads [][]byte

	mu       sync.Mutex
	changed  chan struct{}
	state    JobState
	stage    string // currently executing stage (running jobs)
	cache    string // "hit" | "miss" | "" (cache off or not yet decided)
	errMsg   string
	events   []Event
	output   *pipeline.Output
	manifest *obs.Manifest
	trace    *obs.Trace
	cancel   context.CancelFunc
	created  time.Time
	started  time.Time
	finished time.Time
}

func newJob(id string, spec JobSpec, opt pipeline.Options, reads [][]byte) *Job {
	j := &Job{
		ID: id, Spec: spec, opt: opt, reads: reads,
		changed: make(chan struct{}),
		state:   JobQueued,
		created: time.Now(),
	}
	j.event("queued", "", "", 0)
	return j
}

// event appends one progress event and wakes every waiting stream. Callers
// may hold mu (eventLocked) or not (event).
func (j *Job) event(typ, stage, detail string, wall time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.eventLocked(typ, stage, detail, wall)
}

func (j *Job) eventLocked(typ, stage, detail string, wall time.Duration) {
	j.events = append(j.events, Event{
		Seq: len(j.events), Type: typ, Stage: stage, Detail: detail,
		WallMS: wall.Milliseconds(), Time: time.Now().UTC().Format(time.RFC3339Nano),
	})
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventsSince returns the events from seq on, whether the job is terminal,
// and the channel the next mutation closes — the SSE handler's wait point.
func (j *Job) eventsSince(seq int) ([]Event, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if seq < len(j.events) {
		evs = append(evs, j.events[seq:]...)
	}
	return evs, j.state.terminal(), j.changed
}

// JobStatus is the GET /jobs/{id} payload.
type JobStatus struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Stage    string   `json:"stage,omitempty"` // currently executing stage
	Cache    string   `json:"cache,omitempty"` // hit | miss
	Error    string   `json:"error,omitempty"`
	Contigs  int      `json:"contigs,omitempty"`
	Spec     JobSpec  `json:"spec"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
}

// Status snapshots the job for the HTTP API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, State: j.state, Stage: j.stage, Cache: j.cache,
		Error: j.errMsg, Spec: j.Spec,
		Created: j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.output != nil {
		st.Contigs = len(j.output.Contigs)
	}
	return st
}

// result returns the finished output and manifest (nil until JobDone).
func (j *Job) result() (*pipeline.Output, *obs.Manifest, *obs.Trace) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.output, j.manifest, j.trace
}

// requestCancel cancels the job from the API: a queued job goes terminal
// immediately (the worker skips it on dequeue), a running one has its
// context cancelled and goes terminal when the engine unwinds. Terminal
// jobs are left alone. Reports whether anything was cancelled.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.finished = time.Now()
		j.eventLocked("cancelled", "", "cancelled while queued", 0)
		j.mu.Unlock()
		return true
	case JobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	}
	j.mu.Unlock()
	return false
}

// run executes the job on the worker goroutine: per-job context, observer
// and trace (isolation — nothing observable is shared between jobs), then
// the cache-mediated assembly.
func (s *Server) run(j *Job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()

	j.mu.Lock()
	if j.state != JobQueued { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.eventLocked("started", "", "", 0)
	j.mu.Unlock()

	// Per-job observability: a fresh trace per run, so concurrent jobs
	// cannot bleed spans into each other (the engine gives each run its own
	// metric set, so each manifest records exactly its own run).
	opt := j.opt
	opt.Trace = obs.NewTrace(opt.P)

	observer := pipeline.Observer{
		StageStart: func(stage string, _, _ int) {
			j.mu.Lock()
			j.stage = stage
			j.eventLocked("stage_start", stage, "", 0)
			j.mu.Unlock()
		},
		StageEnd: func(stage string, _ *trace.Summary, wall time.Duration) {
			j.mu.Lock()
			j.stage = ""
			j.eventLocked("stage_end", stage, "", wall)
			j.mu.Unlock()
		},
	}

	out, how, err := s.cache.Assemble(ctx, opt, j.reads, observer)
	if how != "" {
		j.mu.Lock()
		j.cache = how
		j.eventLocked("cache", CacheStage, how, 0)
		j.mu.Unlock()
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.stage = ""
	switch {
	case err == nil:
		man := out.Manifest()
		man.Cache = how
		j.output, j.manifest, j.trace = out, man, opt.Trace
		j.state = JobDone
		j.eventLocked("done", "", fmt.Sprintf("%d contigs", len(out.Contigs)), out.Stats.WallTime)
	case errors.Is(err, context.Canceled):
		j.state = JobCancelled
		j.eventLocked("cancelled", "", "", 0)
	default:
		j.state = JobFailed
		j.errMsg = err.Error()
		var rf *transport.RankFailure
		if errors.As(err, &rf) {
			j.errMsg = fmt.Sprintf("rank %d failed: %s", rf.Rank, err)
		}
		j.eventLocked("failed", "", j.errMsg, 0)
	}
}
