package perfmodel

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestThreadingSpeedup(t *testing.T) {
	th := Threading{Threads: 4, Frac: map[string]float64{"Alignment": 1.0, "CountKmer": 0.5}}
	if got := th.Speedup("Alignment"); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("fully parallel stage at 4 threads: speedup %f, want 4", got)
	}
	// Amdahl at f=0.5, t=4: 1/(0.5 + 0.125) = 1.6.
	if got := th.Speedup("CountKmer"); math.Abs(got-1.6) > 1e-9 {
		t.Fatalf("half-parallel stage: speedup %f, want 1.6", got)
	}
	if got := th.Speedup("TrReduction"); got != 1 {
		t.Fatalf("stage without a fraction must not speed up, got %f", got)
	}
	if got := Serial().Speedup("Alignment"); got != 1 {
		t.Fatalf("serial threading sped up: %f", got)
	}
	if got := (Threading{Threads: 8, Frac: map[string]float64{"x": 2.0}}).Speedup("x"); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("fraction must clamp to 1: speedup %f, want 8", got)
	}
}

func TestStageTimeTDividesComputeOnly(t *testing.T) {
	// 1s bandwidth + 1.5s latency on Aries.
	sum := summary(trace.Record{Name: "Alignment", Nanos: sec, Work: 100, Bytes: 8e9, Msgs: 1e6})
	cal := Calibration{"Alignment": 100} // 1s of compute at one worker
	th := Threading{Threads: 4, Frac: map[string]float64{"Alignment": 1.0}}
	got := StageTimeT(sum, "Alignment", cal, Aries(), th)
	want := 0.25 + 1.0 + 1.5 // compute/4, comm unchanged
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("got %f want %f", got, want)
	}
	// StageTime must equal the serial special case.
	if s, s1 := StageTime(sum, "Alignment", cal, Aries()), StageTimeT(sum, "Alignment", cal, Aries(), Serial()); s != s1 {
		t.Fatalf("StageTime %f != StageTimeT serial %f", s, s1)
	}
}

func TestTotalTAndDefaults(t *testing.T) {
	sum := summary(trace.Record{Name: "Alignment", Nanos: sec, Work: 100},
		trace.Record{Name: "TrReduction", Nanos: sec, Work: 100})
	cal := Calibration{"Alignment": 100, "TrReduction": 100}
	th := WithThreads(4)
	got := TotalT(sum, []string{"Alignment", "TrReduction"}, cal, Aries(), th)
	// Alignment shrinks (f=0.95 → speedup 1/(0.05+0.95/4)), TrReduction does not.
	wantAlign := 1.0 / (1 / (0.05 + 0.95/4))
	if math.Abs(got-(wantAlign+1.0)) > 1e-6 {
		t.Fatalf("got %f want %f", got, wantAlign+1.0)
	}
	f := DefaultFrac()
	if f["Alignment"] <= f["CountKmer"] {
		t.Fatal("alignment must be modeled as more parallel than k-mer counting")
	}
}
