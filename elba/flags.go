package elba

import (
	"flag"
	"fmt"
	"strings"
)

// Flags is the flag→Options plumbing shared by cmd/elba and cmd/experiments:
// the execution knobs every command exposes, with one Register/Apply pair so
// the flag names, defaults and help strings cannot drift apart.
type Flags struct {
	Backend   string // -backend: alignment backend name
	Threads   int    // -threads: intra-rank workers (0 = auto split)
	Comm      string // -comm: async | sync (sync = every rank in mpi's blocking mode; same kernels)
	Transport string // -transport: inproc | tcp | proc (proc: cmd/elba only)
}

// Register declares the shared flags on fs (pass flag.CommandLine for the
// process-wide set).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Backend, "backend", BackendXDrop,
		"alignment backend: "+strings.Join(AlignBackends(), " | "))
	fs.IntVar(&f.Threads, "threads", 0,
		"intra-rank workers for the alignment/k-mer hot paths (0 = GOMAXPROCS split across ranks)")
	fs.StringVar(&f.Comm, "comm", "async",
		"communication mode: async (nonblocking, comm/compute overlap) | sync (blocking); contigs are identical either way")
	fs.StringVar(&f.Transport, "transport", TransportInproc,
		"rank transport: inproc (goroutines + mailboxes) | tcp (loopback socket mesh) | proc (one OS process per rank; elba only); contigs are identical on all")
}

// Apply copies the flags onto opt. Only the -comm spelling is judged here
// (flag syntax, not an Options field); backend, thread count and transport
// are validated with everything else by Options.Validate — at Plan, or
// earlier by a caller that wants to fail before doing any work. The proc
// transport is copied verbatim: only cmd/elba sets the endpoint hook that
// makes it runnable, every other command gets Validate's error.
func (f *Flags) Apply(opt *Options) error {
	switch f.Comm {
	case "async", "sync":
	default:
		return fmt.Errorf("unknown -comm mode %q (want async|sync)", f.Comm)
	}
	opt.Async = f.Comm == "async"
	opt.AlignBackend = f.Backend
	opt.Threads = f.Threads
	opt.Transport = f.Transport
	return nil
}
