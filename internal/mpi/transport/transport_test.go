package transport

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMailboxFIFOPerSrcTag(t *testing.T) {
	m := NewMailbox()
	for i := 0; i < 5; i++ {
		m.Push(Message{Src: 1, Tag: 7, Payload: []byte{byte(i)}})
		m.Push(Message{Src: 2, Tag: 7, Payload: []byte{byte(100 + i)}})
	}
	for i := 0; i < 5; i++ {
		got, _, ok := m.Take(1, 7)
		if !ok || got.Payload[0] != byte(i) {
			t.Fatalf("src 1 take %d: ok=%v payload=%v", i, ok, got.Payload)
		}
	}
	for i := 0; i < 5; i++ {
		got, _, ok := m.Take(2, 7)
		if !ok || got.Payload[0] != byte(100+i) {
			t.Fatalf("src 2 take %d: ok=%v payload=%v", i, ok, got.Payload)
		}
	}
	if _, _, ok := m.Take(1, 7); ok {
		t.Fatal("take from drained mailbox succeeded")
	}
}

func TestMailboxTagSelectivity(t *testing.T) {
	m := NewMailbox()
	m.Push(Message{Src: 0, Tag: 1})
	m.Push(Message{Src: 0, Tag: 2, Payload: []byte("two")})
	got, _, ok := m.Take(0, 2)
	if !ok || string(got.Payload) != "two" {
		t.Fatalf("tag-selective take: ok=%v payload=%q", ok, got.Payload)
	}
	if _, _, ok := m.Take(0, 2); ok {
		t.Fatal("tag 2 taken twice")
	}
	if _, _, ok := m.Take(0, 1); !ok {
		t.Fatal("tag 1 lost")
	}
}

// TestMailboxNotifyBroadcast pins the scan-then-wait contract: every waiter
// holding the generation channel from a failed Take is woken by the next
// Push, not just one of them.
func TestMailboxNotifyBroadcast(t *testing.T) {
	m := NewMailbox()
	const waiters = 8
	var wg sync.WaitGroup
	woke := make(chan int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if _, notify, ok := m.Take(0, int64(i)); ok {
					woke <- i
					return
				} else {
					<-notify
				}
			}
		}(i)
	}
	// Deliver one message per waiter's tag; each Push must wake everyone so
	// the right waiter can claim its message.
	for i := 0; i < waiters; i++ {
		m.Push(Message{Src: 0, Tag: int64(i)})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters stranded: Push wakeup is not a broadcast")
	}
}

func TestMailboxNotifyGrabbedUnderScanLock(t *testing.T) {
	m := NewMailbox()
	_, notify, ok := m.Take(3, 9)
	if ok {
		t.Fatal("empty mailbox returned a message")
	}
	m.Push(Message{Src: 3, Tag: 9})
	select {
	case <-notify:
	case <-time.After(time.Second):
		t.Fatal("notify channel from failed Take not closed by Push")
	}
	if _, _, ok := m.Take(3, 9); !ok {
		t.Fatal("message missing after wakeup")
	}
}

func TestMailboxDepthHook(t *testing.T) {
	m := NewMailbox()
	var depth int64
	m.SetDepthHook(func(d int64) { depth += d })
	m.Push(Message{Src: 0, Tag: 0})
	m.Push(Message{Src: 0, Tag: 0})
	if depth != 2 {
		t.Fatalf("depth after 2 pushes = %d", depth)
	}
	m.Take(0, 0)
	if depth != 1 {
		t.Fatalf("depth after take = %d", depth)
	}
}

// TestMailboxDepthHookSetAfterDeliveries: a hook attached while messages
// are queued — a multi-process world's peers may deliver before this process
// attaches its metrics — counts them, so the depth never goes negative, and
// attaching it while a reader pushes is race-free.
func TestMailboxDepthHookSetAfterDeliveries(t *testing.T) {
	m := NewMailbox()
	m.Push(Message{Src: 0, Tag: 0})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Push(Message{Src: 0, Tag: 0})
	}()
	var depth atomic.Int64
	m.SetDepthHook(func(d int64) { depth.Add(d) })
	<-done
	if got := depth.Load(); got != 2 {
		t.Fatalf("depth with 2 queued = %d", got)
	}
	m.Take(0, 0)
	m.Take(0, 0)
	if got := depth.Load(); got != 0 {
		t.Fatalf("depth after taking every message = %d", got)
	}
}

func TestInprocEndpoints(t *testing.T) {
	const p = 3
	eps := NewInproc(p)
	if len(eps) != p {
		t.Fatalf("got %d endpoints", len(eps))
	}
	for i, ep := range eps {
		if ep.Self() != i || ep.Size() != p {
			t.Fatalf("endpoint %d: self=%d size=%d", i, ep.Self(), ep.Size())
		}
	}
	if err := eps[0].Send(2, Message{Src: 0, Tag: 5, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	got, _, ok := eps[2].Match(0, 5)
	if !ok || string(got.Payload) != "x" {
		t.Fatalf("cross-endpoint delivery: ok=%v payload=%q", ok, got.Payload)
	}
	if err := eps[1].Send(p, Message{Src: 1}); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
	// Lifecycle no-ops must be safe in any order.
	eps[0].SetFailureHandler(func(error) { t.Error("inproc endpoint reported a failure") })
	eps[0].Abort(-1, "nothing to tear down")
	if err := eps[0].Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingDumpNamesMessages(t *testing.T) {
	m := NewMailbox()
	m.Push(Message{Src: 4, Tag: 17, Payload: make([]byte, 3)})
	s := m.PendingDump()
	if !strings.Contains(s, "src=4") || !strings.Contains(s, "tag=17") || !strings.Contains(s, "len=3") {
		t.Fatalf("dump %q missing message coordinates", s)
	}
	for i := 0; i < 20; i++ {
		m.Push(Message{Src: i, Tag: 0})
	}
	if s := m.PendingDump(); !strings.Contains(s, "more") {
		t.Fatalf("dump of 21 messages not truncated: %q", s)
	}
}
