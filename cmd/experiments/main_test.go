package main

import (
	"flag"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/readsim"
)

// TestSharedFlagsReachTheRuns: every table builds its options through
// presetOptions, so -transport (once registered, validated and dropped) and
// its three siblings all arrive in the Options a run executes under.
func TestSharedFlagsReachTheRuns(t *testing.T) {
	saved := common
	t.Cleanup(func() { common = saved })
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	common.Register(fs)
	if err := fs.Parse([]string{"-transport", "tcp", "-backend", "wfa", "-threads", "2", "-comm", "sync"}); err != nil {
		t.Fatal(err)
	}
	opt := presetOptions(readsim.HSapiensLike, 4)
	if opt.Transport != pipeline.TransportTCP || opt.AlignBackend != pipeline.BackendWFA || opt.Threads != 2 || opt.Async {
		t.Fatalf("shared flags lost on the way to Options: %+v", opt)
	}
	if opt.K != 17 || opt.P != 4 {
		t.Fatalf("preset base lost: %+v", opt)
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}
