package perfmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

// summary folds one rank's rows into a Summary.
func summary(recs ...trace.Record) *trace.Summary {
	return trace.Aggregate([]*trace.Timers{trace.FromRecords(recs)})
}

const sec = int64(time.Second)

func TestCalibrateAndExactAtBaseline(t *testing.T) {
	base := summary(trace.Record{Name: "comp", Nanos: 2 * sec, Work: 1000})
	cal := Calibrate(base, []string{"comp"})
	if math.Abs(cal["comp"]-500) > 1e-9 {
		t.Fatalf("rate %f, want 500 units/s", cal["comp"])
	}
	// The model must reproduce the baseline exactly (no comm there).
	if got := StageTime(base, "comp", cal, Aries()); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("baseline stage time %f, want 2.0", got)
	}
}

func TestStageTimeAddsCommTerms(t *testing.T) {
	// 1s of bandwidth + 1.5s of latency on Aries.
	sum := summary(trace.Record{Name: "s", Nanos: sec, Work: 100, Bytes: 8e9, Msgs: 1e6})
	cal := Calibration{"s": 100} // 1s of compute
	got := StageTime(sum, "s", cal, Aries())
	want := 1.0 + 1.0 + 1.5
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("got %f want %f", got, want)
	}
}

func TestStageTimeFallsBackToMeasured(t *testing.T) {
	sum := summary(trace.Record{Name: "nocounter", Nanos: 3 * sec})
	got := StageTime(sum, "nocounter", Calibration{}, Aries())
	if math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("fallback %f, want 3.0", got)
	}
}

func TestTotalSumsStages(t *testing.T) {
	sum := summary(trace.Record{Name: "a", Nanos: sec, Work: 10}, trace.Record{Name: "b", Nanos: sec, Work: 20})
	cal := Calibrate(sum, []string{"a", "b"})
	if got := Total(sum, []string{"a", "b"}, cal, Aries()); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("total %f", got)
	}
}

func TestEfficiency(t *testing.T) {
	// Perfect scaling: T(4) = T(1)/4 → efficiency 1.
	if e := Efficiency(1, 8.0, 4, 2.0); math.Abs(e-1.0) > 1e-9 {
		t.Fatalf("perfect efficiency %f", e)
	}
	// No scaling: T(4) = T(1) → 25%.
	if e := Efficiency(1, 8.0, 4, 8.0); math.Abs(e-0.25) > 1e-9 {
		t.Fatalf("flat efficiency %f", e)
	}
	if Efficiency(1, 1, 0, 0) != 0 {
		t.Fatal("degenerate efficiency")
	}
}

func TestFormatScaling(t *testing.T) {
	rows := []ScalingRow{{P: 4, Modeled: 1.5, Wall: time.Second, Efficiency: 0.9, CommBytes: 1 << 20}}
	out := FormatScaling(rows)
	if len(out) == 0 || out[0] != ' ' {
		t.Fatalf("format: %q", out)
	}
}

func TestStageTimeOverlapTerm(t *testing.T) {
	// 1s of compute, 2s of overlappable bandwidth, 0.5s of exposed
	// bandwidth: the overlappable share hides behind compute up to the
	// compute time, so T = max(1, 2) + 0.5 = 2.5 — not 1 + 2.5.
	// 16 GB overlappable (2s on Aries bandwidth) + 4 GB blocking (0.5s).
	sum := summary(trace.Record{Name: "s", Nanos: sec, Work: 100, Bytes: 20e9, OvBytes: 16e9})
	cal := Calibration{"s": 100}
	if got := StageTime(sum, "s", cal, Aries()); math.Abs(got-2.5) > 1e-6 {
		t.Fatalf("comm-bound overlapped stage: got %f want 2.5", got)
	}

	// Compute-bound case: 4s of compute fully hides the 2s of overlappable
	// comm; only the exposed 0.5s adds.
	cal2 := Calibration{"s": 25}
	if got := StageTime(sum, "s", cal2, Aries()); math.Abs(got-4.5) > 1e-6 {
		t.Fatalf("compute-bound overlapped stage: got %f want 4.5", got)
	}

	// The same traffic fully blocking is strictly worse: 4 + 2.5.
	blocking := summary(trace.Record{Name: "s", Nanos: sec, Work: 100, Bytes: 20e9})
	if got := StageTime(blocking, "s", cal2, Aries()); math.Abs(got-6.5) > 1e-6 {
		t.Fatalf("blocking stage: got %f want 6.5", got)
	}
}

func TestCommSplitSumsToTotal(t *testing.T) {
	sum := summary(trace.Record{Name: "s", Bytes: 16e9, Msgs: 3e6, OvBytes: 8e9, OvMsgs: 2e6})
	e := sum.Get("s")
	overlap, exposed := CommSplit(e, Aries())
	total := float64(e.MaxBytes)/Aries().Bandwidth + float64(e.MaxMsgs)*Aries().Latency
	if math.Abs(overlap+exposed-total) > 1e-9 {
		t.Fatalf("overlap %f + exposed %f != total %f", overlap, exposed, total)
	}
	if overlap <= 0 || exposed <= 0 {
		t.Fatalf("split degenerate: overlap %f exposed %f", overlap, exposed)
	}
}
