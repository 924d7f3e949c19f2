package main

import (
	"runtime"
	"syscall"
	"time"
)

// opSample is what one timed operation cost, read from outside the program
// under test: the benchmark's clock, the process's rusage and the runtime's
// allocation counters.
type opSample struct {
	Wall    float64 // seconds
	CPU     float64 // user+sys seconds
	Mallocs float64 // heap objects allocated
	Bytes   float64 // heap bytes allocated
}

// meter brackets one timed region.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

// cpuSeconds returns the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's high-water resident set in MB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// start opens a timed region. The clock is read last so the bookkeeping
// reads stay outside the interval.
func (m *meter) start() {
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t0 = time.Now()
}

// stop closes the region and returns its cost.
func (m *meter) stop() opSample {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return opSample{
		Wall:    wall,
		CPU:     cpu - m.cpu,
		Mallocs: float64(ms.Mallocs - m.ms.Mallocs),
		Bytes:   float64(ms.TotalAlloc - m.ms.TotalAlloc),
	}
}

// measured runs fn inside a timed region.
func measured(fn func() error) (opSample, error) {
	var m meter
	m.start()
	err := fn()
	return m.stop(), err
}

// opLoop runs warm untimed operations, then timed ones until the budget is
// spent (at least minOps of them, at most maxOps when that is positive). op
// is told whether it is timed, and reports its own sample so a workload can
// place the timed region inside its rank program. An operation that returns
// an error counts as failed and contributes no sample. warmS is what the
// warm-up took: it lets caches fill and lazy set-up finish before timing, so
// it is reported as part of set-up time, where work moved out of the timed
// operations shows. Attempts, failures and error texts land in the record.
func (r *runRecord) opLoop(seconds float64, warm, minOps, maxOps int, op func(timed bool) (opSample, error)) (samples []opSample, warmS float64) {
	start := time.Now()
	for i := 0; i < warm; i++ {
		if _, err := op(false); err != nil {
			r.Errors = append(r.Errors, "warm-up: "+err.Error())
		}
	}
	warmS = time.Since(start).Seconds()
	start = time.Now()
	for attempted, failed := 0, 0; attempted < minOps || time.Since(start).Seconds() < seconds; {
		if maxOps > 0 && attempted >= maxOps {
			break
		}
		attempted++
		r.Attempted++
		s, err := op(true)
		if err != nil {
			failed++
			r.Failed++
			r.Errors = append(r.Errors, err.Error())
			if failed >= 3 {
				break // a broken build fails every operation; stop early
			}
			continue
		}
		samples = append(samples, s)
	}
	return samples, warmS
}
