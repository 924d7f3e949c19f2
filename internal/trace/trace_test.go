package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

func TestStageAccumulatesTimeAndTraffic(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) {
		tm := New()
		tm.Stage("s1", c, func() {
			if c.Rank() == 0 {
				mpi.Send(c, 1, 0, make([]int64, 100))
			} else {
				mpi.Recv[int64](c, 0, 0)
			}
			time.Sleep(5 * time.Millisecond)
		})
		e := tm.Entry("s1")
		if time.Duration(e.Nanos) < 5*time.Millisecond {
			panic("stage too short")
		}
		if c.Rank() == 0 && (e.Bytes != 800 || e.Msgs != 1) {
			panic("traffic not attributed")
		}
		if c.Rank() == 1 && e.Bytes != 0 {
			panic("receiver should have sent nothing")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAddWorkAndMerge: work accumulates within a rank (AddWork on top of a
// restored row) and sums across ranks when their rows are folded.
func TestAddWorkAndMerge(t *testing.T) {
	a := FromRecords([]Record{{Name: "x", Nanos: int64(time.Second), Work: 100}})
	a.AddWork("x", 25)
	b := FromRecords([]Record{
		{Name: "x", Nanos: int64(2 * time.Second), Work: 25},
		{Name: "y", Bytes: 10, Msgs: 1},
	})
	if a.Entry("x").Work != 125 {
		t.Fatal("AddWork did not accumulate")
	}
	sum := Aggregate([]*Timers{a, b})
	if sum.Dur("x") != 2*time.Second {
		t.Fatal("fold dur")
	}
	if e := sum.Get("x"); e.SumWork != 150 || e.MaxWork != 125 {
		t.Fatalf("fold work: %+v", e)
	}
	if sum.Get("y").SumBytes != 10 {
		t.Fatal("fold comm")
	}
}

func TestMergeMaxAggregates(t *testing.T) {
	ranks := make([]*Timers, 4)
	for r := range ranks {
		ranks[r] = FromRecords([]Record{{Name: "stage",
			Nanos: int64(time.Duration(r+1) * time.Millisecond),
			Work:  int64(10 * (r + 1)),
			Bytes: int64(100 * (r + 1)), Msgs: int64(r)}})
	}
	sum := Aggregate(ranks)
	e := sum.Get("stage")
	if e.MaxDur != 4*time.Millisecond {
		t.Fatal("max dur wrong")
	}
	if e.MaxWork != 40 || e.SumWork != 100 {
		t.Fatal("work aggregation wrong")
	}
	if e.SumBytes != 1000 || e.MaxBytes != 400 || e.SumMsgs != 6 || e.MaxMsgs != 3 {
		t.Fatal("traffic aggregation wrong")
	}
	if sum.Dur("stage") != 4*time.Millisecond {
		t.Fatal("accessor wrong")
	}
}

// timed is a row holding only a duration.
func timed(name string, d time.Duration) Record { return Record{Name: name, Nanos: int64(d)} }

// rows folds one rank's rows into a Summary.
func rows(recs ...Record) *Summary { return Aggregate([]*Timers{FromRecords(recs)}) }

func TestBreakdownFormatting(t *testing.T) {
	sum := rows(timed("alpha", 3*time.Second), timed("beta", time.Second))
	out := sum.Breakdown([]string{"alpha", "beta"})
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "75.0%") {
		t.Fatalf("breakdown missing expected share:\n%s", out)
	}
	// Restricted stage list changes the denominator.
	if only := sum.Breakdown([]string{"beta"}); !strings.Contains(only, "100.0%") {
		t.Fatalf("restricted breakdown wrong:\n%s", only)
	}
}

func TestNamesOrder(t *testing.T) {
	tm := New()
	tm.AddWork("z", 1)
	tm.Stage("a", nil, func() {})
	tm.AddWork("z", 1)
	rows := tm.Records()
	if len(rows) != 2 || rows[0].Name != "z" || rows[1].Name != "a" {
		t.Fatalf("rows %v", rows)
	}
}

// TestReadingARowDoesNotCreateIt: Entry of an absent stage is a zero Record
// and leaves the timer set as it was, so a lookup can never add a phantom
// row to a checkpoint or a manifest.
func TestReadingARowDoesNotCreateIt(t *testing.T) {
	tm := New()
	tm.AddWork("z", 1)
	if e := tm.Entry("absent"); e != (Record{}) {
		t.Fatalf("absent row reads %+v, want a zero Record", e)
	}
	if rows := tm.Records(); len(rows) != 1 || rows[0].Name != "z" {
		t.Fatalf("reading an absent row changed the rows: %v", rows)
	}
}

func TestStageSplitsOverlapAndExposed(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) {
		tm := New()
		tm.Stage("mix", c, func() {
			// One blocking and one nonblocking send of the same size: half
			// the stage traffic must land in the overlap counter.
			if c.Rank() == 0 {
				mpi.Send(c, 1, 0, make([]int64, 100))
				mpi.Isend(c, 1, 1, make([]int64, 100)).Wait()
			} else {
				mpi.Recv[int64](c, 0, 0)
				mpi.Irecv[int64](c, 0, 1).Wait()
			}
		})
		e := tm.Entry("mix")
		if c.Rank() == 0 {
			if e.Bytes != 1600 || e.OvBytes != 800 || e.Bytes-e.OvBytes != 800 {
				panic("overlap split wrong")
			}
			if e.Msgs != 2 || e.OvMsgs != 1 || e.Msgs-e.OvMsgs != 1 {
				panic("message split wrong")
			}
		}
		// The multi-process fold: every rank's records, rebuilt and folded.
		var ranks []*Timers
		for _, recs := range mpi.Allgatherv(c, tm.Records()) {
			ranks = append(ranks, FromRecords(recs))
		}
		m := Aggregate(ranks).Get("mix")
		if m.SumOverlapBytes != 800 || m.MaxOverlapBytes != 800 || m.SumExposedBytes() != 800 {
			panic("summary overlap aggregation wrong")
		}
		if m.MaxOverlapBytes > m.MaxBytes {
			panic("max overlap exceeds max bytes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAddCommOverlapAndMerge: the overlap subset survives the record round
// trip and the cross-rank fold, so overlap + exposed == total holds in the
// Summary as it does per rank.
func TestAddCommOverlapAndMerge(t *testing.T) {
	a := FromRecords([]Record{{Name: "s", Bytes: 160, Msgs: 3, OvBytes: 60, OvMsgs: 1}})
	b := FromRecords(FromRecords([]Record{{Name: "s", Bytes: 40, Msgs: 1, OvBytes: 40, OvMsgs: 1}}).Records())
	e := Aggregate([]*Timers{a, b}).Get("s")
	if e.SumBytes != 200 || e.SumOverlapBytes != 100 || e.SumExposedBytes() != 100 {
		t.Fatalf("fold lost overlap accounting: %+v", e)
	}
	if e.SumMsgs != 4 || e.SumOverlapMsgs != 2 || e.SumExposedMsgs() != 2 {
		t.Fatalf("fold lost message accounting: %+v", e)
	}
}
