package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fasta"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/quality"
	"repro/internal/readsim"
	"repro/internal/serve"
)

const (
	serveGenome  = 30000 // C. elegans-like genome uploaded to the daemon at scale 1
	serveFloor   = 80    // completeness floor of the cold job's contigs, as for lowerr-wfa
	serveMinJobs = 20
	// The daemon keeps every finished job (output, trace lanes) for its
	// lifetime, so resident memory grows with the number of jobs served.
	// Capping the sweep keeps peak_rss_mb a property of the code, not of how
	// many jobs happened to fit the budget.
	serveMaxJobs  = 60
	serveVerified = 3 // sweep points checked against an in-memory engine run
)

const serveName = "serve-sweep"

var serveWorkload = workload{
	Name: serveName,
	Why:  "closed loop, 1 client, through the daemon's HTTP API: one cache-miss job then a TR-parameter sweep of cache hits — the only workload through serve, checkpoint write/load and the artifact cache",
	Run:  runServe,
}

// serveRig is one running daemon with its dataset uploaded.
type serveRig struct {
	Genome  []byte
	Reads   [][]byte
	Dataset string
	srv     *serve.Server
	http    *httptest.Server
	dir     string
}

func (rig *serveRig) close() {
	if rig == nil {
		return
	}
	rig.http.Close()
	rig.srv.Close()
	os.RemoveAll(rig.dir)
}

// startServe generates the dataset, starts the daemon on a loopback port
// with its cache under the checkout's scratch directory, and uploads the
// reads as FASTA.
func startServe(seed int64, scale float64) (*serveRig, error) {
	ds := readsim.Generate(readsim.CElegansLike, int(serveGenome*scale), seed)
	rig := &serveRig{Genome: ds.Genome, Reads: readsim.Seqs(ds.Reads)}
	recs := make([]fasta.Record, len(rig.Reads))
	for i, s := range rig.Reads {
		recs[i] = fasta.Record{ID: fmt.Sprintf("read_%d", i), Seq: s}
	}
	var body bytes.Buffer
	if err := fasta.Write(&body, recs, 80); err != nil {
		return nil, err
	}
	tmp := filepath.Join(scratchDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if rig.dir, err = os.MkdirTemp(tmp, "serve-*"); err != nil {
		return nil, err
	}
	if rig.srv, err = serve.New(serve.Config{Queue: 8, Workers: 1, CacheDir: rig.dir}); err != nil {
		os.RemoveAll(rig.dir)
		return nil, err
	}
	rig.http = httptest.NewServer(rig.srv.Handler())
	var up struct {
		ID string `json:"id"`
	}
	if err := rig.call("POST", "/datasets", &body, &up); err != nil {
		rig.close()
		return nil, err
	}
	rig.Dataset = up.ID
	return rig, nil
}

// call makes one JSON request; out may be nil.
func (rig *serveRig) call(method, path string, body io.Reader, out any) error {
	req, err := http.NewRequest(method, rig.http.URL+path, body)
	if err != nil {
		return err
	}
	resp, err := rig.http.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// sweepPoint is the i-th distinct (tr_fuzz, tr_max_iter) pair. Both enter
// the options fingerprint after Alignment, so every point shares the cold
// job's cache entry; point 0 is the defaults the cold job itself ran with.
func sweepPoint(i int) (fuzz int32, iters int) {
	return 150 + int32(i%100), 10 + i/100
}

// jobTrace is one job as its client saw it.
type jobTrace struct {
	Sample  opSample
	Contigs []byte  // the FASTA body
	Cache   string  // hit | miss
	At      []stamp // SSE events by arrival, seconds since the POST was sent (Sample.Wall: body read)
}

type stamp struct {
	Type, Stage string
	At          float64
	// The daemon's own record of the event: its clock and, on stage_end,
	// the stage's wall time in whole milliseconds.
	Server time.Time
	WallMS int64
}

// at returns the arrival time of the first event of a type, or -1.
func (jt *jobTrace) at(typ string) float64 {
	for _, s := range jt.At {
		if s.Type == typ {
			return s.At
		}
	}
	return -1
}

// runJob submits one job and follows it to its contigs: POST /jobs, the SSE
// stream until a terminal event, then the contigs body, timed from the POST
// to the last body byte.
func (rig *serveRig) runJob(spec serve.JobSpec) (*jobTrace, error) {
	jt := &jobTrace{}
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var m meter
	m.start()
	var sub struct {
		ID string `json:"id"`
	}
	if err := rig.call("POST", "/jobs", bytes.NewReader(payload), &sub); err != nil {
		return nil, err
	}
	resp, err := rig.http.Client().Get(rig.http.URL + "/jobs/" + sub.ID + "/events")
	if err != nil {
		return nil, err
	}
	terminal := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() && terminal == "" {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("job %s: bad event %q: %w", sub.ID, data, err)
		}
		at, _ := time.Parse(time.RFC3339Nano, ev.Time) // zero time on a malformed stamp
		jt.At = append(jt.At, stamp{ev.Type, ev.Stage, time.Since(m.t0).Seconds(), at, ev.WallMS})
		switch ev.Type {
		case "cache":
			jt.Cache = ev.Detail
		case "done", "failed", "cancelled":
			terminal = ev.Type + " " + ev.Detail
		}
	}
	resp.Body.Close()
	if !strings.HasPrefix(terminal, "done") {
		return nil, fmt.Errorf("job %s ended %q (stream error: %v)", sub.ID, terminal, sc.Err())
	}
	resp, err = rig.http.Client().Get(rig.http.URL + "/jobs/" + sub.ID + "/contigs")
	if err != nil {
		return nil, err
	}
	jt.Contigs, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.Sample = m.stop()
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %s contigs: %s: %v", sub.ID, resp.Status, err)
	}
	return jt, nil
}

// fastaSeqs parses a contigs body back into sequences.
func fastaSeqs(body []byte) ([][]byte, error) {
	recs, err := fasta.Read(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out, nil
}

func runServe(cfg runConfig) *runRecord {
	rec := newRecord(serveName, cfg)
	if cfg.Traced {
		setWireProbes(rec)
	}
	var prev *serveRig
	rig, setupS, err := timeSetups(func() (*serveRig, error) {
		prev.close()
		r, err := startServe(cfg.Seed, cfg.Scale)
		prev = r
		return r, err
	})
	if err != nil {
		rec.Errors = append(rec.Errors, "set-up: "+err.Error())
		return rec.finish()
	}
	defer rig.close()
	base := serve.JobSpec{Dataset: rig.Dataset, P: benchP, Threads: benchThreads, Backend: pipeline.BackendWFA}

	// The cold job: a miss, which aligns and commits the cache entry.
	began := time.Now()
	cold, err := rig.runJob(base)
	rec.Attempted = 1
	switch {
	case err != nil:
		rec.fail("cold job: %v", err)
		return rec.finish()
	case cold.Cache != "miss":
		rec.fail("cold job reported cache %q, want miss", cold.Cache)
	}

	// The sweep: hits on that entry, one point after another, until the
	// budget that the cold job left is spent.
	var hits []*jobTrace
	op := func(bool) (opSample, error) {
		spec := base
		spec.TRFuzz, spec.TRMaxIter = sweepPoint(len(hits))
		jt, err := rig.runJob(spec)
		if err != nil {
			return opSample{}, err
		}
		hits = append(hits, jt)
		if jt.Cache != "hit" {
			return jt.Sample, fmt.Errorf("sweep job %d reported cache %q, want hit", len(hits)-1, jt.Cache)
		}
		return jt.Sample, nil
	}
	samples, _ := rec.opLoop(cfg.Seconds-time.Since(began).Seconds(), 0, serveMinJobs, serveMaxJobs, op)
	rss := peakRSSMB()
	var cache serve.CacheStats
	if err := rig.call("GET", "/cache", nil, &cache); err != nil {
		rec.fail("GET /cache: %v", err)
	}

	// Correctness: the hit at the cold job's own options returns the cold
	// job's bytes, and sampled points match an engine run that never touched
	// the daemon, its checkpoints or its cache.
	if len(hits) > 0 && !bytes.Equal(hits[0].Contigs, cold.Contigs) {
		rec.fail("the cache hit at the cold job's options returned different contigs")
	}
	if err := verifySweep(rig, hits); err != nil {
		rec.fail("%v", err)
	}
	coldSeqs, err := fastaSeqs(cold.Contigs)
	if err != nil {
		rec.fail("cold job contigs: %v", err)
	}
	rec.Checksum = obs.ChecksumSeqs(coldSeqs)
	rep := quality.Evaluate(rig.Genome, coldSeqs)
	if rep.Misassemblies != 0 || rep.Completeness < serveFloor {
		rec.fail("cold job: %d misassembled contigs, completeness %.2f%%", rep.Misassemblies, rep.Completeness)
	}

	walls := column(samples, func(s opSample) float64 { return s.Wall * 1e3 })
	latencies := func() {
		rec.set("cold_job_s", cold.Sample.Wall)
		rec.set("cached_job_p50_ms", median(walls))
		rec.set("cached_job_p90_ms", percentile(walls, 90))
	}
	if !cfg.Traced {
		rec.set("setup_s", setupS)
		rec.setCosts(samples)
		rec.set("peak_rss_mb", rss)
		rec.set("completeness_pct", rep.Completeness)
		rec.set("contig_n50", float64(rep.N50))
		latencies()
		return rec.finish()
	}

	latencies()
	medianOver := func(f func(*jobTrace) float64) float64 {
		var xs []float64
		for _, jt := range hits {
			if v := f(jt); v >= 0 {
				xs = append(xs, v*1e3)
			}
		}
		return median(xs)
	}
	between := func(from, to float64) float64 {
		if from < 0 || to < 0 {
			return -1 // an event the job never sent: no sample
		}
		return max(to-from, 0)
	}
	rec.set("serve.queue_wait_ms", medianOver(func(jt *jobTrace) float64 { return jt.at("started") }))
	rec.set("pipeline.checkpoint_load_ms", medianOver(func(jt *jobTrace) float64 {
		return between(jt.at("started"), jt.at("stage_start"))
	}))
	rec.set("serve.resume_stages_ms", medianOver(func(jt *jobTrace) float64 {
		return between(jt.at("stage_start"), jt.at("done"))
	}))
	rec.set("serve.fetch_ms", medianOver(func(jt *jobTrace) float64 {
		return between(jt.at("done"), jt.Sample.Wall)
	}))
	// The engine writes the checkpoint after it takes the stage's wall time
	// and before observers hear stage_end, so the write is the part of
	// Alignment's stage_start→stage_end interval that wall_ms leaves out.
	// This one span uses the daemon's event clock: on a host with fewer cores
	// than ranks the client hears events tens of milliseconds late, more
	// than the write takes.
	var alignStart time.Time
	for _, s := range cold.At {
		if s.Stage != pipeline.StageAlignment {
			continue
		}
		switch s.Type {
		case "stage_start":
			alignStart = s.Server
		case "stage_end":
			if !alignStart.IsZero() && !s.Server.IsZero() {
				rec.set("pipeline.checkpoint_write_ms", max(1e3*s.Server.Sub(alignStart).Seconds()-float64(s.WallMS), 0))
			}
		}
	}
	rec.set("serve.cache_hit_ratio", ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)))
	rec.set("serve.cache_entry_bytes", float64(cache.Bytes))
	return rec.finish()
}

// verifySweep re-derives the first, middle and last sweep points without the
// daemon: one in-memory run to Alignment, resumed under each point's options.
func verifySweep(rig *serveRig, hits []*jobTrace) error {
	if len(hits) == 0 {
		return nil
	}
	opt := pinned(pipeline.DefaultOptions(benchP), pipeline.BackendWFA)
	eng, err := pipeline.Plan(opt)
	if err != nil {
		return err
	}
	ctx := context.Background()
	aligned, err := eng.RunUntil(ctx, rig.Reads, pipeline.StageAlignment)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	defer aligned.Close()
	for k := 0; k < serveVerified; k++ {
		i := k * (len(hits) - 1) / (serveVerified - 1)
		popt := opt
		popt.TRFuzz, popt.TRMaxIter = sweepPoint(i)
		peng, err := pipeline.Plan(popt)
		if err != nil {
			return err
		}
		fin, err := peng.ResumeFrom(ctx, aligned, pipeline.StageExtractContig)
		if err != nil {
			return fmt.Errorf("reference run, point %d: %w", i, err)
		}
		out, err := fin.Output()
		if err != nil {
			return err
		}
		got, err := fastaSeqs(hits[i].Contigs)
		if err != nil {
			return fmt.Errorf("sweep job %d contigs: %w", i, err)
		}
		if obs.ChecksumSeqs(got) != obs.ChecksumSeqs(contigSeqs(out.Contigs)) {
			return fmt.Errorf("sweep job %d (tr_fuzz %d, tr_max_iter %d) differs from the daemon-free run at the same options", i, popt.TRFuzz, popt.TRMaxIter)
		}
	}
	return nil
}
