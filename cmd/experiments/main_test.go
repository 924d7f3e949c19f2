package main

import (
	"flag"
	"reflect"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/readsim"
)

// TestSharedFlagsReachTheRuns: every table builds its options through
// pipeline.Resolve, so -backend and -threads arrive in the Options a run
// executes under exactly as they would from cmd/elba or an elbad job spec.
func TestSharedFlagsReachTheRuns(t *testing.T) {
	savedBackend, savedThreads := *backend, *threads
	t.Cleanup(func() { *backend, *threads = savedBackend, savedThreads })
	for name, v := range map[string]string{"backend": "wfa", "threads": "2"} {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	want, err := pipeline.Resolve("hsapiens", 4, pipeline.Overrides{Backend: "wfa", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := presetOptions(readsim.HSapiensLike, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags resolve to %+v, pipeline.Resolve to %+v", got, want)
	}
	if got.AlignBackend != pipeline.BackendWFA || got.Threads != 2 || got.K != 17 {
		t.Fatalf("flags or preset base lost on the way to Options: %+v", got)
	}
}
