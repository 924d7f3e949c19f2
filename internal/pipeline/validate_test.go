package pipeline

import (
	"strings"
	"testing"

	"repro/internal/readsim"
)

// TestValidateReportsAllViolationsWithFieldNames: a single Validate pass
// must surface every bad field, each error naming its field.
func TestValidateReportsAllViolationsWithFieldNames(t *testing.T) {
	o := Options{
		P:            3,         // not a perfect square
		K:            99,        // > kmer.MaxK
		AlignBackend: "quantum", // unknown
		Threads:      -1,
		XDrop:        -5,
		ReliableLow:  -2,
		MinOverlap:   -1,
		MinScoreFrac: -0.5,
		MaxOverhang:  -3,
		TRFuzz:       -150,
		TRMaxIter:    -1,
	}
	err := o.Validate()
	if err == nil {
		t.Fatal("invalid options validated clean")
	}
	msg := err.Error()
	for _, field := range []string{"Options.P", "Options.K", "Options.AlignBackend", "Options.Threads",
		"Options.XDrop", "Options.ReliableLow", "Options.MinOverlap", "Options.MinScoreFrac",
		"Options.MaxOverhang", "Options.TRFuzz", "Options.TRMaxIter"} {
		if !strings.Contains(msg, field) {
			t.Errorf("error does not name %s:\n%s", field, msg)
		}
	}
}

func TestValidateAcceptsDefaultsAndPresets(t *testing.T) {
	for _, p := range []int{1, 4, 16, 64} {
		if err := DefaultOptions(p).Validate(); err != nil {
			t.Errorf("DefaultOptions(%d): %v", p, err)
		}
	}
	for _, preset := range []readsim.Preset{readsim.CElegansLike, readsim.OSativaLike, readsim.HSapiensLike} {
		if err := PresetOptions(preset, 4).Validate(); err != nil {
			t.Errorf("PresetOptions(%v): %v", preset, err)
		}
	}
	o := DefaultOptions(4)
	o.AlignBackend = BackendWFA
	if err := o.Validate(); err != nil {
		t.Errorf("wfa backend: %v", err)
	}
}

func TestValidateReliableRange(t *testing.T) {
	o := DefaultOptions(4)
	o.ReliableLow, o.ReliableHigh = 10, 5
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "ReliableHigh") {
		t.Fatalf("inverted reliable range not reported: %v", err)
	}
}

// TestEffectiveThreadsResolution pins the auto-split rule: explicit values
// win, otherwise GOMAXPROCS/P clamped to ≥ 1.
func TestEffectiveThreadsResolution(t *testing.T) {
	if got := (Options{P: 4, Threads: 3}).EffectiveThreads(); got != 3 {
		t.Fatalf("explicit Threads=3 resolved to %d", got)
	}
	if got := (Options{P: 1 << 20}).EffectiveThreads(); got != 1 {
		t.Fatalf("huge P must clamp to 1 worker, got %d", got)
	}
	if got := (Options{}).EffectiveThreads(); got < 1 {
		t.Fatalf("zero options resolved to %d workers", got)
	}
}

// TestTransportValidation pins the Options seam: unknown transports are
// rejected up front, and the proc transport refuses to run without the
// launcher's endpoint hook instead of silently falling back to inproc.
func TestTransportValidation(t *testing.T) {
	opt := DefaultOptions(4)
	opt.Transport = "carrier-pigeon"
	if _, err := Run(nil, opt); err == nil || !strings.Contains(err.Error(), "carrier-pigeon") {
		t.Fatalf("unknown transport: err = %v, want mention of the bad name", err)
	}
	opt.Transport = TransportProc
	if _, err := Run(nil, opt); err == nil || !strings.Contains(err.Error(), "cmd/elba -transport proc") {
		t.Fatalf("proc without NewWorld hook: err = %v, want pointer at the launcher", err)
	}
}

// TestRunValidatesUpfront: Run must fail before any rank starts, with every
// violation in one error (previously only the P check was upfront; a bad K
// surfaced as a rank panic deep in kmer).
func TestRunValidatesUpfront(t *testing.T) {
	opt := DefaultOptions(3)
	opt.K = 99
	_, err := Run(nil, opt)
	if err == nil {
		t.Fatal("expected validation error")
	}
	if !strings.Contains(err.Error(), "Options.P") || !strings.Contains(err.Error(), "Options.K") {
		t.Fatalf("want both P and K reported, got: %v", err)
	}
}
