package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fasta"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// startDaemon spins up a Server plus an httptest front end and tears both
// down with the test.
func startDaemon(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits spec and returns the job id, failing on any non-202.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	id, status := tryPostJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", status)
	}
	return id
}

func tryPostJob(t *testing.T, ts *httptest.Server, spec JobSpec) (string, int) {
	t.Helper()
	status, body := postSpec(t, ts, spec)
	if status != http.StatusAccepted {
		return "", status
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding POST /jobs response: %v", err)
	}
	return out.ID, status
}

// postSpec submits spec and returns the status and raw response body.
func postSpec(t *testing.T, ts *httptest.Server, spec JobSpec) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading POST /jobs response: %v", err)
	}
	return resp.StatusCode, out
}

// waitJob polls GET /jobs/{id} until the job is terminal.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	// Generous: a -race lap on a loaded CI runner slows the pipeline ~10×.
	deadline := time.Now().Add(10 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /jobs/%s: %v", id, err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
		if st.State.terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobManifest fetches and parses GET /jobs/{id}/manifest.
func jobManifest(t *testing.T, ts *httptest.Server, id string) *obs.Manifest {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/manifest")
	if err != nil {
		t.Fatalf("GET manifest: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/manifest: status %d", id, resp.StatusCode)
	}
	man, err := obs.ReadManifest(resp.Body)
	if err != nil {
		t.Fatalf("parsing manifest: %v", err)
	}
	return man
}

func jobContigs(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/contigs")
	if err != nil {
		t.Fatalf("GET contigs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/contigs: status %d", id, resp.StatusCode)
	}
	fa, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return fa
}

// standalone runs the same spec through the bare pipeline (no daemon, no
// cache) and returns its manifest — the ground truth daemon jobs must match.
func standalone(t *testing.T, s *Server, spec JobSpec) *obs.Manifest {
	t.Helper()
	opt, reads, err := s.jobInputs(spec)
	if err != nil {
		t.Fatalf("jobInputs: %v", err)
	}
	opt.Trace = obs.NewTrace(opt.P)
	opt.Metrics = obs.NewMetricSet(opt.P)
	eng, err := pipeline.Plan(opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), reads)
	if err != nil {
		t.Fatalf("standalone run: %v", err)
	}
	return out.Manifest(opt)
}

// metricSum returns the named metric's Sum (histograms) or Value (counters)
// from a manifest, 0 if absent — a stage that never ran records nothing
// (that's exactly how a cache hit shows zero alignment work).
func metricSum(t *testing.T, man *obs.Manifest, name string) int64 {
	t.Helper()
	for _, m := range man.Metrics {
		if m.Name == name {
			if m.Kind == "histogram" {
				return m.Sum
			}
			return m.Value
		}
	}
	return 0
}

// TestConcurrentJobsMatchStandalone is the isolation gate: two jobs with
// different parameters running concurrently in one daemon must each produce
// output bit-identical to a standalone pipeline run at the same options,
// with per-job manifests whose work metrics match their own standalone run
// exactly — any cross-job trace or metric bleed moves a counter and fails
// the comparison. Run under -race this also proves the job plumbing is
// data-race-free.
func TestConcurrentJobsMatchStandalone(t *testing.T) {
	specA := JobSpec{Preset: "celegans", GenomeLen: 15000, Seed: 7, P: 4, Threads: 1, TRFuzz: 150}
	specB := JobSpec{Preset: "celegans", GenomeLen: 18000, Seed: 11, P: 4, Threads: 1, XDrop: 20}
	s, ts := startDaemon(t, Config{Workers: 2})

	idA := postJob(t, ts, specA)
	idB := postJob(t, ts, specB)
	stA := waitJob(t, ts, idA)
	stB := waitJob(t, ts, idB)
	if stA.State != JobDone || stB.State != JobDone {
		t.Fatalf("states: %s=%q (%s), %s=%q (%s)", idA, stA.State, stA.Error, idB, stB.State, stB.Error)
	}

	wantA := standalone(t, s, specA)
	wantB := standalone(t, s, specB)
	for _, tc := range []struct {
		id   string
		want *obs.Manifest
	}{{idA, wantA}, {idB, wantB}} {
		got := jobManifest(t, ts, tc.id)
		if bad := got.Verify(); len(bad) > 0 {
			t.Errorf("%s manifest invalid: %v", tc.id, bad)
		}
		if got.Contigs != tc.want.Contigs {
			t.Errorf("%s contigs %+v, standalone %+v", tc.id, got.Contigs, tc.want.Contigs)
		}
		if got.Comm != tc.want.Comm {
			t.Errorf("%s comm %+v, standalone %+v", tc.id, got.Comm, tc.want.Comm)
		}
		for _, metric := range []string{"align.cells", "align.pairs"} {
			if g, w := metricSum(t, got, metric), metricSum(t, tc.want, metric); g != w {
				t.Errorf("%s metric %s = %d, standalone %d (cross-job bleed?)", tc.id, metric, g, w)
			}
		}
		if got.Cache != "" {
			t.Errorf("%s manifest cache = %q, want empty (daemon has no cache)", tc.id, got.Cache)
		}
	}
	// The two jobs differ by construction; identical checksums would mean
	// one job's output leaked into the other.
	if wantA.Contigs.Checksum == wantB.Contigs.Checksum {
		t.Fatalf("test needs distinguishable jobs, both checksum %s", wantA.Contigs.Checksum)
	}
}

// TestJobEventsStream checks the SSE endpoint replays a completed job's
// whole progress log: queued, started, every stage boundary in pipeline
// order, and the terminal done event.
func TestJobEventsStream(t *testing.T) {
	_, ts := startDaemon(t, Config{})
	id := postJob(t, ts, JobSpec{Preset: "celegans", GenomeLen: 15000, Seed: 3, P: 1, Threads: 1})
	if st := waitJob(t, ts, id); st.State != JobDone {
		t.Fatalf("job %s: %q (%s)", id, st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	want := []string{"queued", "started"}
	for range pipeline.StageNames() {
		want = append(want, "stage_start", "stage_end")
	}
	want = append(want, "done")
	if got, wanted := fmt.Sprint(types), fmt.Sprint(want); got != wanted {
		t.Fatalf("event sequence %v, want %v", types, want)
	}
}

// TestAdmissionAndCancel covers the bounded queue and both cancellation
// paths: a full queue answers 429, a queued job cancels instantly, and a
// running job unwinds via its context and lands in cancelled.
func TestAdmissionAndCancel(t *testing.T) {
	big := JobSpec{Preset: "celegans", GenomeLen: 60000, Seed: 5, P: 4, Threads: 1}
	_, ts := startDaemon(t, Config{Queue: 1, Workers: 1})

	running := postJob(t, ts, big) // dequeued immediately, occupies the worker
	queued := postJob(t, ts, big)  // fills the queue
	if _, status := tryPostJob(t, ts, big); status != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", status)
	}

	del := func(id string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE /jobs/%s: %v", id, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := del(queued); status != http.StatusOK {
		t.Fatalf("cancelling queued job: status %d", status)
	}
	if st := waitJob(t, ts, queued); st.State != JobCancelled {
		t.Fatalf("queued job state %q, want cancelled", st.State)
	}
	if status := del(running); status != http.StatusOK {
		t.Fatalf("cancelling running job: status %d", status)
	}
	if st := waitJob(t, ts, running); st.State != JobCancelled {
		t.Fatalf("running job state %q, want cancelled", st.State)
	}
	// Terminal jobs refuse further cancels.
	if status := del(running); status != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", status)
	}
	// Output endpoints explain themselves for jobs without output.
	resp, err := http.Get(ts.URL + "/jobs/" + running + "/contigs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("contigs of cancelled job: status %d, want 409", resp.StatusCode)
	}
}

// TestMixedCaseFastaAssemblesLikeUpperCase: FASTA is the trust boundary for
// letter case. The k-mer stage reads acgt as ACGT, the aligners compare raw
// bytes, so before fasta.Read normalised case one soft-masked read seeded
// overlaps that never aligned and cut this dataset's single contig in three.
// The same mixed-case file must give the upper-case contigs both ways in:
// through fasta.ReadSeqs (cmd/elba -in) and through a POST /datasets upload.
func TestMixedCaseFastaAssemblesLikeUpperCase(t *testing.T) {
	s, ts := startDaemon(t, Config{})
	preset := JobSpec{Preset: "celegans", GenomeLen: 20000, Seed: 3, P: 4, Threads: 1}
	opt, reads, err := s.jobInputs(preset)
	if err != nil {
		t.Fatal(err)
	}
	var fa bytes.Buffer
	for i, r := range reads {
		switch {
		case i == len(reads)/2: // one fully soft-masked read
			r = bytes.ToLower(r)
		case i%7 == 0: // and some masked in part, wrapped so a line starts mid-mask
			r = append(bytes.ToLower(r[:len(r)/3]), r[len(r)/3:]...)
		}
		fmt.Fprintf(&fa, ">Read%d softMasked\n%s\n%s\n", i, r[:len(r)/4], r[len(r)/4:])
	}
	want := standalone(t, s, preset).Contigs

	seqs, err := fasta.ReadSeqs(bytes.NewReader(fa.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	out, err := pipeline.Run(seqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Manifest(opt).Contigs; got != want {
		t.Errorf("through fasta.ReadSeqs: contigs %+v, upper-case twin %+v", got, want)
	}

	resp, err := http.Post(ts.URL+"/datasets", "text/plain", bytes.NewReader(fa.Bytes()))
	if err != nil {
		t.Fatalf("POST /datasets: %v", err)
	}
	var ds struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ds.ID != obs.ChecksumSeqs(reads) {
		t.Errorf("uploaded dataset id %s, upper-case twin's %s", ds.ID, obs.ChecksumSeqs(reads))
	}
	id := postJob(t, ts, JobSpec{Dataset: ds.ID, P: 4, Threads: 1, K: opt.K})
	if st := waitJob(t, ts, id); st.State != JobDone {
		t.Fatalf("job %s: %q (%s)", id, st.State, st.Error)
	}
	if got := jobManifest(t, ts, id).Contigs; got != want {
		t.Errorf("through an upload: contigs %+v, upper-case twin %+v", got, want)
	}
}

// TestUploadRejectsNonLetterSequence: FASTA is parsed fail-closed at the
// upload boundary. A '>' inside a sequence line is a 400 naming the line and
// the byte, not a second record, and the daemon keeps serving.
func TestUploadRejectsNonLetterSequence(t *testing.T) {
	_, ts := startDaemon(t, Config{})
	resp, err := http.Post(ts.URL+"/datasets", "text/plain", strings.NewReader(">x\nACGTACG>TTT\n"))
	if err != nil {
		t.Fatalf("POST /datasets: %v", err)
	}
	var body struct {
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, `line 2: byte ">" at column 8`) {
		t.Fatalf("status %d error %q, want 400 naming line 2 and the '>'", resp.StatusCode, body.Error)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz after the rejected upload: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestUploadedDatasetRoundTrip uploads reads as FASTA, assembles the
// dataset by id, and checks the daemon's contigs match a standalone run on
// the same sequences. Bad submissions get 400s and leave the daemon serving.
func TestUploadedDatasetRoundTrip(t *testing.T) {
	s, ts := startDaemon(t, Config{})
	opt, reads, err := s.jobInputs(JobSpec{Preset: "celegans", GenomeLen: 15000, Seed: 13, P: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fa bytes.Buffer
	for i, r := range reads {
		fmt.Fprintf(&fa, ">read%d\n%s\n", i, r)
	}
	resp, err := http.Post(ts.URL+"/datasets", "text/plain", bytes.NewReader(fa.Bytes()))
	if err != nil {
		t.Fatalf("POST /datasets: %v", err)
	}
	var ds struct {
		ID    string `json:"id"`
		Reads int    `json:"reads"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ds)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Reads != len(reads) || ds.ID != obs.ChecksumSeqs(reads) {
		t.Fatalf("dataset %+v, want %d reads id %s", ds, len(reads), obs.ChecksumSeqs(reads))
	}

	spec := JobSpec{Dataset: ds.ID, P: 1, Threads: 1, K: opt.K}
	id := postJob(t, ts, spec)
	if st := waitJob(t, ts, id); st.State != JobDone {
		t.Fatalf("job %s: %q (%s)", id, st.State, st.Error)
	}
	want := standalone(t, s, spec)
	if got := jobManifest(t, ts, id); got.Contigs != want.Contigs {
		t.Fatalf("uploaded-dataset contigs %+v, standalone %+v", got.Contigs, want.Contigs)
	}

	// Every bad spec is a 400 that says what is wrong, and the daemon is
	// still serving afterwards (a panicking handler shows as a transport
	// error here, a swallowed override as a 202).
	for _, bad := range []struct {
		spec JobSpec
		want string // substring of the error body
	}{
		{JobSpec{}, "need dataset or preset"},
		{JobSpec{Dataset: "nope"}, "unknown dataset"},
		{JobSpec{Preset: "celegans", Dataset: ds.ID}, "mutually exclusive"},
		{JobSpec{Preset: "martian"}, "unknown preset"},
		{JobSpec{Preset: "celegans", P: 3}, "Options.P"},
		{JobSpec{Preset: "celegans", GenomeLen: -5}, "genome length -5"},
		{JobSpec{Preset: "celegans", GenomeLen: 1 << 30}, "input limit"}, // 40 GiB of reads > MaxUpload
		{JobSpec{Preset: "celegans", Threads: -3}, "Options.Threads"},
		{JobSpec{Preset: "celegans", K: -3}, "Options.K"},
		{JobSpec{Preset: "celegans", XDrop: -3}, "Options.XDrop"},
		{JobSpec{Dataset: ds.ID, MinOverlap: -3}, "Options.MinOverlap"},
		{JobSpec{Dataset: ds.ID, MaxOverhang: -3}, "Options.MaxOverhang"},
		{JobSpec{Preset: "celegans", TRFuzz: -3}, "Options.TRFuzz"},
		{JobSpec{Preset: "celegans", TRMaxIter: -3}, "Options.TRMaxIter"},
		{JobSpec{Preset: "celegans", K: 99, TRFuzz: -3}, "Options.TRFuzz"}, // all violations, not just the first (K)
	} {
		status, body := postSpec(t, ts, bad.spec)
		if status != http.StatusBadRequest || !strings.Contains(string(body), bad.want) {
			t.Errorf("spec %+v: status %d body %s, want 400 naming %q", bad.spec, status, body, bad.want)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz after spec %+v: %v", bad.spec, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz after spec %+v: status %d", bad.spec, resp.StatusCode)
		}
	}
	if st := waitJob(t, ts, postJob(t, ts, spec)); st.State != JobDone {
		t.Fatalf("good job after the rejected ones: %q (%s)", st.State, st.Error)
	}
}
