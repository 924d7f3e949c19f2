package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// envRunMain makes the test binary behave as the elba command, so exit codes
// and stderr are tested on the real main without a separate build.
const envRunMain = "ELBA_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(envRunMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func flagOptions(t *testing.T, args ...string) (pipeline.Options, error) {
	t.Helper()
	var of optionFlags
	fs := flag.NewFlagSet("elba", flag.ContinueOnError)
	of.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return of.options()
}

// TestFlagsAndJobSpecAgree: one job description resolves to one option set
// whether it arrives as cmd/elba flags or as an elbad JobSpec — and a
// description one door rejects, the other rejects with the same message.
func TestFlagsAndJobSpecAgree(t *testing.T) {
	for _, tc := range []struct {
		args []string
		spec serve.JobSpec
	}{
		{[]string{"-p", "4"}, serve.JobSpec{Dataset: "sha256:x", P: 4}},
		{[]string{"-preset", "hsapiens", "-np", "16"}, serve.JobSpec{Preset: "hsapiens", P: 16}},
		{[]string{"-preset", "celegans", "-p", "4", "-k", "19", "-x", "9", "-trfuzz", "300", "-backend", "wfa", "-threads", "2"},
			serve.JobSpec{Preset: "celegans", P: 4, K: 19, XDrop: 9, TRFuzz: 300, Backend: "wfa", Threads: 2}},
		{[]string{"-preset", "celegans", "-p", "4", "-backend", "xdrop"}, serve.JobSpec{Preset: "celegans", P: 4}},
		{[]string{"-preset", "osativa", "-p", "3", "-k", "-5", "-trfuzz", "-3"},
			serve.JobSpec{Preset: "osativa", P: 3, K: -5, TRFuzz: -3}},
		{[]string{"-preset", "martian"}, serve.JobSpec{Preset: "martian"}},
	} {
		cli, cliErr := flagOptions(t, tc.args...)
		job, jobErr := tc.spec.Options(4)
		if cliErr != nil || jobErr != nil {
			if cliErr == nil || jobErr == nil || cliErr.Error() != jobErr.Error() {
				t.Errorf("%v: flags error %v, job spec error %v", tc.args, cliErr, jobErr)
			}
			continue
		}
		if cli.Fingerprint() != job.Fingerprint() || cli.Threads != job.Threads {
			t.Errorf("%v: flags resolve to %+v, job spec to %+v", tc.args, cli, job)
		}
	}
}

// TestBadFlagsFailOnce: an invalid description is one `elba:` message and
// exit code 1 — not a stack trace (exit 2), not a silent default (exit 0),
// and with -transport proc not one copy per worker.
func TestBadFlagsFailOnce(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-preset celegans -size -5", "genome length -5"},
		{"-preset celegans -size 0", "genome length 0"},
		{"-preset celegans -k -5 -x -2", "Options.K"},
		{"-preset celegans -k -5 -x -2", "Options.XDrop"},
		{"-preset celegans -trfuzz -3", "Options.TRFuzz"},
		{"-preset celegans -transport carrier-pigeon", "Options.Transport"},
		{"-preset celegans -transport carrier-pigeon -join 127.0.0.1:1 -rank 0 -np 1", "Options.Transport"},
		{"-preset celegans -np -4", "Options.P"},
		{"-preset celegans -transport proc -np 3", "Options.P"},
		{"-preset celegans -transport proc -np 4 -k -5", "Options.K"},
		{"-preset celegans -transport proc -np 4 -size -5", "genome length -5"},
	} {
		cmd := exec.Command(exe, strings.Fields(tc.args)...)
		cmd.Env = append(os.Environ(), envRunMain+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var xe *exec.ExitError
		if !errors.As(err, &xe) || xe.ExitCode() != 1 {
			t.Errorf("elba %s: %v, want exit status 1\n%s", tc.args, err, &stderr)
			continue
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "elba: ") || strings.Contains(msg, "goroutine ") || strings.Count(msg, tc.want) != 1 {
			t.Errorf("elba %s: want one `elba:` message naming %q, got:\n%s", tc.args, tc.want, msg)
		}
	}
}

// TestResumeRefusesOldSchema: -resume on a checkpoint directory committed
// under the previous schema is one `elba:` line naming both schemas and a
// non-zero exit — not a decode panic, not a silently reinterpreted k-mer matrix.
func TestResumeRefusesOldSchema(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(extra ...string) (string, error) {
		args := append(strings.Fields("-preset celegans -size 4000 -seed 3 -p 4"), extra...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), envRunMain+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	if msg, err := run("-checkpoint", dir, "-checkpoint-every", pipeline.StageCountKmer); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, msg)
	}
	if msg, err := run("-resume", dir); err != nil {
		t.Fatalf("resume of a current-schema checkpoint: %v\n%s", err, msg)
	}
	manPath := filepath.Join(dir, pipeline.StageCountKmer, pipeline.CheckpointManifestName)
	blob, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	stale := strings.Replace(string(blob), pipeline.CheckpointSchema, "elba/checkpoint/v3", 1)
	if err := os.WriteFile(manPath, []byte(stale), 0o666); err != nil {
		t.Fatal(err)
	}
	msg, err := run("-resume", dir)
	var xe *exec.ExitError
	if !errors.As(err, &xe) || xe.ExitCode() == 0 {
		t.Fatalf("resume of a v3 checkpoint: %v, want a non-zero exit\n%s", err, msg)
	}
	if !strings.Contains(msg, `schema "elba/checkpoint/v3"`) || !strings.Contains(msg, pipeline.CheckpointSchema) || strings.Contains(msg, "goroutine ") {
		t.Errorf("want one message naming both schemas, got:\n%s", msg)
	}
}

// runManifest runs this binary as elba with a small job, args and env, and
// returns the RUN.json it wrote as dir/name.json.
func runManifest(t *testing.T, dir, name string, env []string, args ...string) *obs.Manifest {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	args = append(strings.Fields("-preset celegans -size 4000 -seed 3 -manifest "+path), args...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), append(env, envRunMain+"=1")...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s run: %v\n%s", name, err, &stderr)
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// byName indexes one metric snapshot by metric name.
func byName(snap []obs.Metric) map[string]obs.Metric {
	out := make(map[string]obs.Metric, len(snap))
	for _, m := range snap {
		out[m.Name] = m
	}
	return out
}

// TestProcLauncher: -transport proc -np 4 re-execs this binary as four -join
// workers, and the run gives the in-process run's contig checksum, traffic
// totals and, rank by rank, metric names and non-gauge values, and records
// transport proc. With -checkpoint and a fault that kills rank 2 in
// Alignment, the launcher relaunches the group once, from the committed
// checkpoint, and the run gives the same contigs.
func TestProcLauncher(t *testing.T) {
	if testing.Short() {
		t.Skip("starts worker groups in -short mode")
	}
	dir := t.TempDir()
	transport := func(m *obs.Manifest) any { return m.Options.(map[string]any)["Transport"] }

	want := runManifest(t, dir, "inproc", nil, "-p", "4")
	got := runManifest(t, dir, "proc", nil, "-transport", "proc", "-np", "4")
	if got.Contigs != want.Contigs || got.Comm != want.Comm {
		t.Errorf("proc run: contigs %+v, comm %+v; inproc run: %+v, %+v", got.Contigs, got.Comm, want.Contigs, want.Comm)
	}
	if transport(got) != "proc" || got.Restarts != 0 {
		t.Errorf("proc run records transport %v and %d restarts, want proc and 0", transport(got), got.Restarts)
	}
	if bad := got.Verify(); len(bad) != 0 || len(got.PerRank) != len(want.PerRank) {
		t.Fatalf("proc run records %d per-rank snapshots (inproc %d): %v", len(got.PerRank), len(want.PerRank), bad)
	}
	// Gauges are last values and high-watermarks of a rank's own schedule
	// (mailbox depth, a table's entries as it grows), not totals of its work.
	for r := range want.PerRank {
		g, w := byName(got.PerRank[r]), byName(want.PerRank[r])
		if len(g) != len(w) {
			t.Errorf("rank %d: proc run has %d metrics, inproc run %d", r, len(g), len(w))
		}
		for name, wm := range w {
			gm, ok := g[name]
			switch {
			case !ok:
				t.Errorf("rank %d: metric %s missing from the proc run", r, name)
			case wm.Kind != obs.KindGauge && !reflect.DeepEqual(gm, wm):
				t.Errorf("rank %d: proc run's %+v, inproc run's %+v", r, gm, wm)
			}
		}
	}

	chaos := runManifest(t, dir, "chaos", []string{faultinject.EnvVar + "=kill:rank=2,stage=Alignment,n=1"},
		"-transport", "proc", "-np", "4", "-checkpoint", filepath.Join(dir, "checkpoints"))
	if chaos.Contigs != want.Contigs || chaos.Comm != want.Comm {
		t.Errorf("recovered run: contigs %+v, comm %+v; inproc run: %+v, %+v", chaos.Contigs, chaos.Comm, want.Contigs, want.Comm)
	}
	if chaos.Restarts != 1 {
		t.Errorf("recovered run records %d restarts, want 1", chaos.Restarts)
	}
}

// joinJob runs an np-rank -join world of this binary behind its own
// `elba -serve-rendezvous`: every rank gets args plus -join, -rank, -np and a
// loopback -listen, then extra(rank). Before any rank starts, strangers gets
// the rendezvous address. It returns each rank's exit error and stderr, after
// checking that the rendezvous wired the ranks and exited 0.
func joinJob(t *testing.T, np int, args []string, extra func(rank int) []string, strangers func(rdv string)) ([]error, []string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	command := func(args ...string) *exec.Cmd {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), envRunMain+"=1")
		return cmd
	}
	rdvCmd := command("-serve-rendezvous", "127.0.0.1:0", "-np", strconv.Itoa(np))
	rdvOut, err := rdvCmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := rdvCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer rdvCmd.Process.Kill() // a no-op once it has exited
	lines := bufio.NewScanner(rdvOut)
	if !lines.Scan() {
		t.Fatalf("rendezvous printed no address: %v", lines.Err())
	}
	fields := strings.Fields(lines.Text()) // rendezvous: serving <np> ranks on <addr>
	rdv := fields[len(fields)-1]
	var rdvLog strings.Builder
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for lines.Scan() {
			rdvLog.WriteString(lines.Text() + "\n")
		}
	}()
	if strangers != nil {
		strangers(rdv)
	}

	errs, stderr := make([]error, np), make([]string, np)
	var wg sync.WaitGroup
	for r := range np {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rankArgs := append(slices.Clone(args), "-join", rdv, "-rank", strconv.Itoa(r), "-np", strconv.Itoa(np), "-listen", "127.0.0.1:0")
			cmd := command(append(rankArgs, extra(r)...)...)
			var b strings.Builder
			cmd.Stderr = &b
			errs[r] = cmd.Run()
			stderr[r] = b.String()
		}()
	}
	wg.Wait()
	<-drained
	if err := rdvCmd.Wait(); err != nil {
		t.Fatalf("rendezvous: %v\n%s", err, &rdvLog)
	}
	return errs, stderr
}

// TestJoinRefusesMixedJobs: a 4-rank -join world where rank 3 alone adds
// -k 17 is not one job. Every rank must fail before the first stage, naming
// rank 3 and its options fingerprint, rather than assemble wrong contigs.
func TestJoinRefusesMixedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a worker group in -short mode")
	}
	args := strings.Fields("-preset celegans -size 4000 -seed 3 -transport tcp -out " + filepath.Join(t.TempDir(), "contigs.fa"))
	errs, stderr := joinJob(t, 4, args, func(rank int) []string {
		if rank == 3 {
			return []string{"-k", "17"}
		}
		return nil
	}, nil)
	for r := range errs {
		var xe *exec.ExitError
		if !errors.As(errs[r], &xe) || xe.ExitCode() == 0 {
			t.Errorf("rank %d: exit %v, want a failure\n%s", r, errs[r], stderr[r])
			continue
		}
		if !strings.Contains(stderr[r], "rank 3 does not run rank 0's job: its options fingerprint") || strings.Contains(stderr[r], "goroutine ") {
			t.Errorf("rank %d: want one error naming rank 3 and its options, got:\n%s", r, stderr[r])
		}
	}
}

// TestJoinAssemblesBehindStrangers: a silent TCP connection and an HTTP
// request reach `elba -serve-rendezvous` before any rank; the rendezvous
// drops them and wires the four -join ranks, whose assembly must write the
// in-process run's contigs byte for byte.
func TestJoinAssemblesBehindStrangers(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a worker group in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	job := strings.Fields("-preset celegans -size 4000 -seed 3")
	inproc := exec.Command(exe, append(slices.Clone(job), "-p", "4", "-out", filepath.Join(dir, "inproc.fa"))...)
	inproc.Env = append(os.Environ(), envRunMain+"=1")
	if out, err := inproc.CombinedOutput(); err != nil {
		t.Fatalf("inproc run: %v\n%s", err, out)
	}

	var silent net.Conn
	strangers := func(rdv string) {
		if silent, err = net.Dial("tcp", rdv); err != nil {
			t.Fatal(err)
		}
		http, err := net.Dial("tcp", rdv)
		if err != nil {
			t.Fatal(err)
		}
		defer http.Close()
		if _, err := http.Write([]byte("GET / HTTP/1.1\r\nHost: " + rdv + "\r\n\r\n")); err != nil {
			t.Fatal(err)
		}
		// The rendezvous closes what it cannot parse: wait for that, so the
		// request has surely arrived before the first rank.
		if _, err := io.ReadAll(http); err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatal(err)
		}
	}
	errs, stderr := joinJob(t, 4, append(job, "-transport", "tcp", "-out", filepath.Join(dir, "join.fa")),
		func(int) []string { return nil }, strangers)
	defer silent.Close()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, stderr[r])
		}
	}
	want, err := os.ReadFile(filepath.Join(dir, "inproc.fa"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "join.fa"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("-join contigs (%d bytes) differ from the in-process run's (%d bytes)", len(got), len(want))
	}
}

// TestJoinManifestCoversEveryRank: in a 4-rank -join world where only rank 0
// is given -manifest, its RUN.json still records every rank's metric
// snapshot, and their merge equals an in-process run's work and traffic.
func TestJoinManifestCoversEveryRank(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a worker group in -short mode")
	}
	dir := t.TempDir()
	want := byName(runManifest(t, dir, "inproc", nil, "-p", "4").Metrics)
	path := filepath.Join(dir, "join.json")
	errs, stderr := joinJob(t, 4, strings.Fields("-preset celegans -size 4000 -seed 3 -transport tcp"), func(rank int) []string {
		if rank == 0 {
			return []string{"-manifest", path}
		}
		return nil
	}, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, stderr[r])
		}
	}
	m, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bad := m.Verify(); len(bad) != 0 {
		t.Fatalf("join manifest invalid: %v", bad)
	}
	if len(m.PerRank) != 4 {
		t.Fatalf("join manifest records %d per-rank snapshots, want 4", len(m.PerRank))
	}
	for r, snap := range m.PerRank {
		if len(snap) == 0 {
			t.Errorf("rank %d's metric snapshot is empty", r)
		}
	}
	got := byName(m.Metrics)
	for _, name := range []string{"kmer.occurrences", "align.pairs", "spmat.spgemm_products", "mpi.msg_bytes"} {
		g, w := got[name], want[name]
		if w.Value+w.Count == 0 || g.Value != w.Value || g.Count != w.Count || g.Sum != w.Sum {
			t.Errorf("%s: join run value %d count %d sum %d; inproc run value %d count %d sum %d",
				name, g.Value, g.Count, g.Sum, w.Value, w.Count, w.Sum)
		}
	}
}
