package main

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	Seed    int64
	Seconds float64 // timed budget; operations run until it is spent
	Traced  bool    // record per-layer spans instead of end-to-end costs
	Scale   float64 // input size multiplier (1 = the sizes in the README; -smoke shrinks)
}

// runRecord is what one run (one child process) reports to its parent.
type runRecord struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Checksum identifies the contigs bit-exactly (obs.ChecksumSeqs); equal
	// across every run of one seed, traced or not, and between the two
	// layout workloads. CommBytes/CommMsgs are one operation's traffic,
	// which the same invariant covers.
	Checksum  string `json:"contig_checksum"`
	CommBytes int64  `json:"comm_bytes"`
	CommMsgs  int64  `json:"comm_msgs"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one. Metrics that do not exist on the
	// workload are absent.
	Metrics map[string]float64 `json:"metrics"`
}

// workload is one named set of inputs with the reason it exists.
type workload struct {
	Name string
	Why  string
	Run  func(cfg runConfig) *runRecord
}

func newRecord(name string, cfg runConfig) *runRecord {
	return &runRecord{Workload: name, Seed: cfg.Seed, Traced: cfg.Traced, Metrics: map[string]float64{}}
}

// fail records a failed correctness check that condemns every operation of
// the run (the output they all share is wrong).
func (r *runRecord) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	r.Failed = r.Attempted
}

// sameContigs checks an operation's contigs against the run's first: every
// operation of a run assembles the same input, so the checksums must agree.
func (r *runRecord) sameContigs(seqs [][]byte) error {
	sum := obs.ChecksumSeqs(seqs)
	if r.Checksum == "" {
		r.Checksum = sum
	} else if sum != r.Checksum {
		return fmt.Errorf("contig checksum %s differs from the run's first (%s)", sum, r.Checksum)
	}
	return nil
}

// finish settles the counts once every check has run. An error that is tied
// to no single operation (a failed set-up or warm-up) condemns the run.
func (r *runRecord) finish() *runRecord {
	r.Attempted = max(r.Attempted, 1)
	if len(r.Errors) > 0 && r.Failed == 0 {
		r.Failed = r.Attempted
	}
	r.Failed = min(r.Failed, r.Attempted)
	r.Correct = r.Failed == 0
	return r
}

// set stores a metric, dropping values that cannot be encoded.
func (r *runRecord) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.Metrics[name] = v
}

// setCosts stores the per-operation end-to-end costs of an untraced run.
func (r *runRecord) setCosts(samples []opSample) {
	if len(samples) == 0 {
		return
	}
	r.set("wall_s", median(column(samples, func(s opSample) float64 { return s.Wall })))
	r.set("cpu_s", median(column(samples, func(s opSample) float64 { return s.CPU })))
	r.set("allocs_per_op", median(column(samples, func(s opSample) float64 { return s.Mallocs })))
	r.set("alloc_mb_per_op", median(column(samples, func(s opSample) float64 { return s.Bytes }))/1e6)
}

// ratio divides, returning NaN (dropped by set) on a zero denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// Set-up is repeated so that its time is a median like every other timing:
// at least setupMinRepeats times, and cheap set-ups (milliseconds, where one
// page fault more or less shows) until setupBudget seconds or
// setupMaxRepeats are spent.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 15
	setupBudget     = 1.0
)

// timeSetups runs a set-up function repeatedly and returns the last result
// with the median duration.
func timeSetups[T any](setup func() (T, error)) (T, float64, error) {
	var last T
	var secs []float64
	var total float64
	for len(secs) < setupMinRepeats || (len(secs) < setupMaxRepeats && total < setupBudget) {
		var err error
		s, _ := measured(func() error {
			last, err = setup()
			return err
		})
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, s.Wall)
		total += s.Wall
	}
	return last, median(secs), nil
}
