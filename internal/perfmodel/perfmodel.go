// Package perfmodel reproduces the paper's scaling figures (4 and 6) on
// hosts with fewer cores than simulated ranks — the substitution for the
// missing supercomputer (DESIGN.md §2).
//
// The simulated runtime measures, per rank and per stage, (a) wall time,
// (b) abstract work units (alignment DP cells, SpGEMM semiring products,
// k-mer occurrences, routed edges) and (c) bytes/messages sent. Wall time
// on an oversubscribed host says nothing about distributed scaling, but the
// work and traffic counters are exact algorithmic quantities, independent
// of the host. The model predicts the distributed runtime of a stage as
//
//	T(stage, P) = maxWork(P)/rate(stage) + maxBytes(P)/bandwidth + maxMsgs(P)·latency
//
// where rate(stage) is calibrated from a measured single-rank run of the
// same dataset (at P=1 the measured time is pure compute, so the model is
// exact there by construction) and the network constants default to an
// Aries-like interconnect matching the paper's Cori platform (Table 1).
// Nonblocking communication enters through the overlap term: the share of a
// stage's traffic sent through the nonblocking mpi layer hides behind the
// compute term, and only the exposed remainder — max(0, overlappable comm −
// overlappable compute) plus all blocking comm — lands on the critical path
// (see StageTime).
// Load imbalance and communication growth — the real drivers of the paper's
// efficiency curves — enter through the max-per-rank counters.
package perfmodel

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/trace"
)

// Network models the interconnect.
type Network struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second per rank
}

// Aries approximates the Cray Aries Dragonfly of Cori (Table 1): ~1.5 µs
// MPI latency, ~8 GB/s injection bandwidth per node shared by ranks.
func Aries() Network { return Network{Latency: 1.5e-6, Bandwidth: 8e9} }

// InfiniBand approximates Summit's fat tree (Table 1): similar latency,
// higher per-node bandwidth but shared across more ranks; the paper notes
// Summit's lower per-core network performance, modeled here as a slower
// effective per-rank bandwidth.
func InfiniBand() Network { return Network{Latency: 2.0e-6, Bandwidth: 5e9} }

// Calibration maps stage name → work units per second (per worker: calibrate
// from a Threads=1 run so the rate means single-thread throughput).
type Calibration map[string]float64

// Calibrate derives per-stage compute rates from a baseline run (typically
// P=1, where measured time contains no off-rank communication or core
// contention).
func Calibrate(base *trace.Summary, stages []string) Calibration {
	cal := Calibration{}
	for _, s := range stages {
		e := base.Get(s)
		if e.SumWork > 0 && e.MaxDur > 0 {
			cal[s] = float64(e.SumWork) / e.MaxDur.Seconds()
		}
	}
	return cal
}

// StageTime predicts the distributed wall time of one stage.
//
// Communication enters through the overlap model: traffic sent through the
// nonblocking layer (the stage's MaxOverlapBytes/MaxOverlapMsgs) hides
// behind the compute term, so only its excess over the compute time is
// charged — exposed = max(0, overlappable comm − overlappable compute) —
// while the blocking remainder is charged in full:
//
//	T = max(compute, overlapComm) + exposedComm
//
// A blocking run has zero overlap counters, reducing T to the additive
// compute + comm form, so sync and async runs of the same program differ
// exactly by the hidden communication.
func StageTime(sum *trace.Summary, stage string, cal Calibration, net Network) float64 {
	e := sum.Get(stage)
	var t float64
	if rate, ok := cal[stage]; ok && rate > 0 {
		t = float64(e.MaxWork) / rate
	} else {
		// No work counter for this stage: fall back to the measured max
		// duration (documented limitation; all five main stages have
		// counters).
		t = e.MaxDur.Seconds()
	}
	overlapComm, exposedComm := CommSplit(e, net)
	if overlapComm > t {
		t = overlapComm
	}
	return t + exposedComm
}

// CommSplit returns the stage's modeled communication time split into the
// overlappable share (sent nonblocking; can hide behind compute) and the
// exposed share (blocking; always on the critical path). The two sum to the
// stage's total modeled communication time.
func CommSplit(e trace.SummaryEntry, net Network) (overlap, exposed float64) {
	total := float64(e.MaxBytes)/net.Bandwidth + float64(e.MaxMsgs)*net.Latency
	overlap = float64(e.MaxOverlapBytes)/net.Bandwidth + float64(e.MaxOverlapMsgs)*net.Latency
	if overlap > total {
		overlap = total
	}
	return overlap, total - overlap
}

// Total predicts the end-to-end runtime over the given stages.
func Total(sum *trace.Summary, stages []string, cal Calibration, net Network) float64 {
	var t float64
	for _, s := range stages {
		t += StageTime(sum, s, cal, net)
	}
	return t
}

// Efficiency computes strong-scaling parallel efficiency between a baseline
// (pBase ranks, tBase seconds) and a larger run: eff = tBase·pBase/(t·p).
func Efficiency(pBase int, tBase float64, p int, t float64) float64 {
	if t <= 0 || p <= 0 {
		return 0
	}
	return tBase * float64(pBase) / (t * float64(p))
}

// ScalingRow is one P-point of a Figure 4/6-style curve.
type ScalingRow struct {
	P          int
	Modeled    float64 // modeled seconds (the headline number)
	Wall       time.Duration
	Efficiency float64
	CommBytes  int64
}

// FormatScaling renders rows as a small table.
func FormatScaling(rows []ScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %14s %14s %12s %12s\n", "P", "modeled(s)", "wall", "efficiency", "comm(MB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %14.4f %14s %11.1f%% %12.2f\n",
			r.P, r.Modeled, r.Wall.Round(time.Millisecond), 100*r.Efficiency, float64(r.CommBytes)/1e6)
	}
	return b.String()
}
