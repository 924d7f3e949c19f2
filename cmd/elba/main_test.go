package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
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

// TestProcLauncher: -transport proc -np 4 re-execs this binary as four -join
// workers, and the run gives the in-process run's contig checksum and
// traffic totals and records transport proc. With -checkpoint and a fault
// that kills rank 2 in Alignment, the launcher relaunches the group once,
// from the committed checkpoint, and the run gives the same contigs.
func TestProcLauncher(t *testing.T) {
	if testing.Short() {
		t.Skip("starts worker groups in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(name string, env []string, args ...string) *obs.Manifest {
		t.Helper()
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
	transport := func(m *obs.Manifest) any { return m.Options.(map[string]any)["Transport"] }

	want := run("inproc", nil, "-p", "4")
	got := run("proc", nil, "-transport", "proc", "-np", "4")
	if got.Contigs != want.Contigs || got.Comm != want.Comm {
		t.Errorf("proc run: contigs %+v, comm %+v; inproc run: %+v, %+v", got.Contigs, got.Comm, want.Contigs, want.Comm)
	}
	if transport(got) != "proc" || got.Restarts != 0 {
		t.Errorf("proc run records transport %v and %d restarts, want proc and 0", transport(got), got.Restarts)
	}

	chaos := run("chaos", []string{faultinject.EnvVar + "=kill:rank=2,stage=Alignment,n=1"},
		"-transport", "proc", "-np", "4", "-checkpoint", filepath.Join(dir, "checkpoints"))
	if chaos.Contigs != want.Contigs || chaos.Comm != want.Comm {
		t.Errorf("recovered run: contigs %+v, comm %+v; inproc run: %+v, %+v", chaos.Contigs, chaos.Comm, want.Contigs, want.Comm)
	}
	if chaos.Restarts != 1 {
		t.Errorf("recovered run records %d restarts, want 1", chaos.Restarts)
	}
}
