package main

// Multi-process and multi-host execution.
//
// A rank in its own OS process is a -join worker: it dials a rendezvous,
// joins its one endpoint into a TCP mesh, and runs the ordinary assembly
// path with a NewWorld hook that returns that world — the pipeline, the
// collectives and the nonblocking layer are unchanged above the seam. Two
// ways start workers:
//
//   - Multiple hosts (-transport tcp -join host:port -rank R -np P): each
//     worker is launched independently — by hand, a job scheduler, or ssh —
//     and dials a standalone rendezvous (hosted by any one machine running
//     `elba -serve-rendezvous addr -np P`). Workers advertise routable
//     addresses derived from their route to the rendezvous; -listen and
//     -advertise pin the bind interface and published address on multi-homed
//     or NATed hosts.
//   - Single host (-transport proc -np P), the special case: the launcher
//     serves a loopback rendezvous and re-execs this binary once per rank
//     with its own flags plus -join <rendezvous> -rank R -listen 127.0.0.1:0
//     (and -resume <stage dir> on a relaunch), then multiplexes the workers'
//     output (rank 0's stdout is the run's stdout). A worker started this way
//     records transport proc in the run manifest, any other records tcp.
//
// Rank 0 gathers the contigs, statistics and metric snapshots over the wire
// (no shared filesystem is assumed) and alone prints summaries and writes
// output files. A worker that dies aborts its peers through the transport
// failure path instead of hanging them; see OPERATIONS.md for the failure
// semantics.

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
	"repro/internal/mpi/transport/tcp"
	"repro/internal/pipeline"
)

// envProcRestarts is the one variable the proc launcher sets on its
// workers: the attempt number (0 on the first launch), which rank 0 records
// in the run manifest.
const envProcRestarts = "ELBA_PROC_RESTARTS"

// procGrace bounds how long surviving workers may keep running after the
// first worker failure before the supervisor kills them. It comfortably
// covers the transport's own failure propagation (abort delivery is
// immediate; a hung peer takes one heartbeat timeout to surface) — only a
// rank that is itself wedged, e.g. SIGSTOPped by fault injection, ever
// reaches the kill.
const procGrace = 30 * time.Second

// joinWorld returns the Options.NewWorld hook of a -join worker: dial the
// rendezvous at rdv, join this rank's endpoint into the mesh, and build a
// world where the other ranks are remote.
func joinWorld(rdv string, rank int, cfg tcp.JoinConfig) func(int) (*mpi.World, error) {
	return func(p int) (*mpi.World, error) {
		ep, err := tcp.Join(rdv, rank, p, cfg)
		if err != nil {
			return nil, err
		}
		return mpi.NewWorldTransport(ep), nil
	}
}

// serveRendezvous hosts the bootstrap of an np-rank multi-host job at addr
// and exits once every rank has registered and received the address table
// (-serve-rendezvous). Returns the exit code.
func serveRendezvous(addr string, np int) int {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rendezvous: serving %d ranks on %s\n", np, ln.Addr())
	if err := tcp.ServeRendezvous(ln, np); err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "rendezvous: all %d ranks wired\n", np)
	return 0
}

// launchProc is the parent side of -transport proc: a supervisor. Each
// attempt serves a fresh rendezvous listener, re-execs this binary np times
// as -join workers with the launcher's own flags (args), and waits. When
// checkpointing is on (-checkpoint) and a worker dies, the supervisor
// relaunches the whole group — resuming from the most advanced committed
// checkpoint if one exists, from scratch otherwise — up to maxRestarts times
// with exponential backoff before giving up with the workers' failure exit
// code. Without durable checkpoints there is nothing safe to relaunch from,
// so the first failure is final (the attributed abort). Rank 0's stdout is
// the run's stdout (the summary lines); all other output goes to stderr.
// Returns the exit code to propagate.
func launchProc(args []string, np int, checkpointDir string, maxRestarts int) int {
	if checkpointDir == "" {
		maxRestarts = 0
	}
	resumeDir := ""
	for attempt := 0; ; attempt++ {
		code := runProcGroup(args, np, attempt, resumeDir)
		if code == 0 {
			if attempt > 0 {
				fmt.Fprintf(os.Stderr, "elba: recovered after %d restart(s)\n", attempt)
			}
			return 0
		}
		if attempt >= maxRestarts {
			if maxRestarts > 0 {
				log.Printf("giving up after %d restart(s)", attempt)
			}
			return code
		}
		resumeDir = ""
		from := "from scratch (no committed checkpoint yet)"
		if dir, man, err := pipeline.LatestCheckpoint(checkpointDir); err != nil {
			log.Printf("checkpoint scan: %v; restarting from scratch", err)
		} else if man != nil {
			// Pin the exact commit this supervisor saw (a stage directory),
			// not the root: a racing writer can never move the resume point.
			resumeDir = dir
			from = "from checkpoint " + dir
		}
		backoff := 500 * time.Millisecond << attempt
		log.Printf("worker group failed; relaunching %s (attempt %d of %d) in %v",
			from, attempt+2, maxRestarts+1, backoff)
		time.Sleep(backoff)
	}
}

// workerEnviron is the base environment of one worker group attempt: the
// supervisor's own, minus any armed fault spec on relaunches — an injected
// fault fires once per job, not once per attempt, or recovery could never
// complete (the relaunched rank would just be killed at the same stage
// again).
func workerEnviron(attempt int) []string {
	env := os.Environ()
	if attempt == 0 {
		return env
	}
	kept := make([]string, 0, len(env))
	for _, kv := range env {
		if strings.HasPrefix(kv, faultinject.EnvVar+"=") {
			continue
		}
		kept = append(kept, kv)
	}
	return kept
}

// runProcGroup runs one attempt of the np-worker group to completion and
// returns its exit code (0: the whole group succeeded). Rank R runs args plus
// its place in the loopback mesh and, on a relaunch from a checkpoint, the
// pinned stage directory, which wins over any -resume in args.
func runProcGroup(args []string, np, attempt int, resumeDir string) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer ln.Close()
	rdvErr := make(chan error, 1)
	go func() { rdvErr <- tcp.ServeRendezvous(ln, np) }()

	exe, err := os.Executable()
	if err != nil {
		log.Print(err)
		return 1
	}
	procs := make([]*exec.Cmd, np)
	for rank := 0; rank < np; rank++ {
		wargs := append(slices.Clip(args), "-join", ln.Addr().String(),
			"-rank", strconv.Itoa(rank), "-listen", "127.0.0.1:0")
		if resumeDir != "" {
			wargs = append(wargs, "-resume", resumeDir)
		}
		cmd := exec.Command(exe, wargs...)
		cmd.Env = append(workerEnviron(attempt), envProcRestarts+"="+strconv.Itoa(attempt))
		// Only rank 0 produces results; its stdout stays machine-parseable.
		if rank == 0 {
			cmd.Stdout = os.Stdout
		} else {
			cmd.Stdout = os.Stderr
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Printf("rank %d: %v", rank, err)
			for _, c := range procs[:rank] {
				c.Process.Kill()
			}
			return 1
		}
		procs[rank] = cmd
	}
	type waitRes struct {
		rank int
		err  error
	}
	waits := make(chan waitRes, np)
	for rank, cmd := range procs {
		go func(rank int, cmd *exec.Cmd) { waits <- waitRes{rank, cmd.Wait()} }(rank, cmd)
	}
	code := 0
	// Once any worker fails, the survivors get a bounded grace to unwind on
	// their own (the transport abort or missed heartbeats reach them well
	// within it); stragglers — a SIGSTOPped rank never exits by itself — are
	// then killed so the supervisor can relaunch instead of waiting forever.
	var grace <-chan time.Time
	for n := 0; n < np; {
		select {
		case r := <-waits:
			n++
			if r.err == nil {
				continue
			}
			if code == 0 {
				code = 1
				grace = time.After(procGrace)
			}
			var xe *exec.ExitError
			if errors.As(r.err, &xe) && xe.ExitCode() == faultinject.ExitKilled {
				log.Printf("rank %d: killed by injected fault (exit %d)", r.rank, faultinject.ExitKilled)
			} else {
				log.Printf("rank %d: %v", r.rank, r.err)
			}
		case <-grace:
			log.Printf("killing workers still running %v after the first failure", procGrace)
			for _, c := range procs {
				c.Process.Kill() // no-op error on the already-exited ones
			}
			grace = nil
		}
	}
	if code != 0 {
		// A worker may have died before registering; close the listener so
		// the rendezvous server cannot block this wait forever.
		ln.Close()
	}
	if err := <-rdvErr; err != nil && code == 0 {
		log.Printf("rendezvous: %v", err)
		code = 1
	}
	return code
}
