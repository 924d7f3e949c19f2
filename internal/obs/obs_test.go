package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilLaneIsNoOp(t *testing.T) {
	var l *Lane
	st := l.Start()
	l.Span(0, "c", "n", st)
	l.Instant(1, "c", "n", Arg{K: "k", V: 1})
	if l.Events() != nil || l.Dropped() != 0 {
		t.Fatal("nil lane recorded something")
	}
	var tr *Trace
	if tr.Ranks() != 0 || tr.Rank(0) != nil {
		t.Fatal("nil trace not inert")
	}
}

func TestLaneRecordsSpansAndInstants(t *testing.T) {
	tr := NewTrace(2)
	l := tr.Rank(1)
	st := l.Start()
	l.Span(0, "stage", "CountKmer", st, Arg{K: "rank", V: 1})
	l.Instant(0, "mpi", "send", Arg{K: "dst", V: 3}, Arg{K: "bytes", V: 800})
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Ph != 'X' || evs[0].Name != "CountKmer" || evs[0].Dur < 0 {
		t.Fatalf("span event wrong: %+v", evs[0])
	}
	if evs[1].Ph != 'i' || evs[1].Args[1].V != 800 {
		t.Fatalf("instant event wrong: %+v", evs[1])
	}
	if len(tr.Rank(0).Events()) != 0 {
		t.Fatal("rank 0 lane should be empty")
	}
}

func TestLaneRingOverwritesOldest(t *testing.T) {
	tr := NewTraceCap(1, 4)
	l := tr.Rank(0)
	for i := 0; i < 10; i++ {
		l.Instant(0, "c", "e", Arg{K: "i", V: int64(i)})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Args[0].V != want {
			t.Fatalf("event %d carries %d, want %d (newest must survive)", i, e.Args[0].V, want)
		}
	}
	if l.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", l.Dropped())
	}
}

// TestLaneGrowsToCapacity: a lane allocates what it records, not its
// capacity up front — a fresh lane holds no buffer, and n events below the
// cap hold n.
func TestLaneGrowsToCapacity(t *testing.T) {
	l := NewTrace(1).Rank(0)
	if l.buf != nil {
		t.Fatalf("fresh lane holds a %d-event buffer", cap(l.buf))
	}
	const n = 400
	for i := 0; i < n; i++ {
		l.Instant(0, "c", "e")
	}
	if len(l.buf) != n || cap(l.buf) >= DefaultLaneCap {
		t.Fatalf("after %d events the lane holds %d (capacity %d), want %d", n, len(l.buf), cap(l.buf), n)
	}
	if len(l.Events()) != n || l.Dropped() != 0 {
		t.Fatalf("lane returns %d events, %d dropped", len(l.Events()), l.Dropped())
	}
}

func TestLaneConcurrentRecording(t *testing.T) {
	tr := NewTrace(1)
	l := tr.Rank(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Instant(int32(w), "c", "e")
			}
		}(w)
	}
	wg.Wait()
	if got := len(l.Events()); got != 800 {
		t.Fatalf("got %d events, want 800", got)
	}
}

func TestWriteJSONIsPerfettoShaped(t *testing.T) {
	tr := NewTrace(2)
	st := tr.Rank(0).Start()
	tr.Rank(0).Span(0, "stage", "Alignment", st)
	tr.Rank(0).Span(1, "pool", "align", st, Arg{K: "lo", V: 0}, Arg{K: "n", V: 5})
	tr.Rank(1).Instant(0, "mpi", "send", Arg{K: "dst", V: 0})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var spans, instants, procNames, threadNames int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if _, ok := e["dur"]; !ok {
				t.Fatalf("span without dur: %v", e)
			}
		case "i":
			instants++
		case "M":
			switch e["name"] {
			case "process_name":
				procNames++
			case "thread_name":
				threadNames++
			}
		}
	}
	if spans != 2 || instants != 1 {
		t.Fatalf("spans=%d instants=%d, want 2/1", spans, instants)
	}
	if procNames != 2 {
		t.Fatalf("process_name metadata for %d ranks, want 2", procNames)
	}
	// rank 0: tids 0 and 1; rank 1: tid 0.
	if threadNames != 3 {
		t.Fatalf("thread_name metadata %d, want 3", threadNames)
	}
	if !strings.Contains(buf.String(), `"worker 0"`) {
		t.Fatal("pool worker thread not named")
	}
}
