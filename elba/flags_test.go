package elba_test

import (
	"flag"
	"testing"

	"repro/elba"
)

// TestFlagsApply: the shared flag helper round-trips onto Options, rejects a
// bad -comm spelling itself, and leaves every value to Options.Validate.
func TestFlagsApply(t *testing.T) {
	var f elba.Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-backend", "wfa", "-threads", "3", "-comm", "sync", "-transport", "tcp"}); err != nil {
		t.Fatal(err)
	}
	opt := elba.DefaultOptions(4)
	if err := f.Apply(&opt); err != nil {
		t.Fatal(err)
	}
	if opt.AlignBackend != elba.BackendWFA || opt.Threads != 3 || opt.Async || opt.Transport != elba.TransportTCP {
		t.Fatalf("Apply mismatch: %+v", opt)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	f.Transport = "carrier-pigeon"
	if err := f.Apply(&opt); err != nil {
		t.Fatalf("Apply judged -transport itself: %v", err)
	}
	if err := opt.Validate(); err == nil {
		t.Fatal("bad -transport validated clean")
	}
	f.Comm = "carrier-pigeon"
	if err := f.Apply(&opt); err == nil {
		t.Fatal("bad -comm accepted")
	}
}
