package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi/transport"
)

// The reader tests drive one endpoint (rank 0 of 3) whose connection to rank
// 1 is a net.Pipe: the test plays rank 1 byte by byte.
const (
	pipeSelf = 0
	pipePeer = 1
	pipeSize = 3
)

// frame encodes one mesh frame as writeFrame puts it on the wire.
func frame(kind byte, tag int64, payload []byte) []byte {
	out := make([]byte, 13, 13+len(payload))
	out[0] = kind
	binary.LittleEndian.PutUint64(out[1:9], uint64(tag))
	binary.LittleEndian.PutUint32(out[9:13], uint32(len(payload)))
	return append(out, payload...)
}

// header encodes a frame header announcing n payload bytes.
func header(kind byte, tag int64, n uint32) []byte {
	out := frame(kind, tag, nil)
	binary.LittleEndian.PutUint32(out[9:13], n)
	return out
}

// readerRun is what the endpoint made of a peer's byte stream.
type readerRun struct {
	fails  []error
	pushes int
	box    *transport.Mailbox
}

// runReader feeds data to the endpoint's reader for rank pipePeer, closes
// the peer's side, and returns once the reader and both pipe goroutines have
// exited.
func runReader(data []byte) readerRun {
	local, remote := net.Pipe()
	pc := &peerConn{nc: local, done: make(chan struct{})}
	e := &Endpoint{self: pipeSelf, size: pipeSize, box: transport.NewMailbox(), peers: make([]*peerConn, pipeSize)}
	e.peers[pipePeer] = pc
	run := readerRun{box: e.box}
	// Both callbacks run on this goroutine: the reader below is called
	// directly, and only it fails the endpoint or pushes.
	e.SetFailureHandler(func(err error) { run.fails = append(run.fails, err) })
	e.SetQueueDepthHook(func(d int64) {
		if d > 0 {
			run.pushes++
		}
	})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); io.Copy(io.Discard, remote) }() // PONG replies
	go func() { defer wg.Done(); remote.Write(data); remote.Close() }()
	e.reader(pipePeer, pc)
	local.Close() // unblocks a peer still writing what the reader refused
	wg.Wait()
	return run
}

// wantReader is the protocol read from data by a reference decoder: the MSG
// payloads delivered, and the rank the single failure must name — -1 when a
// BYE ends the stream cleanly.
func wantReader(data []byte) (msgs []transport.Message, blamed int) {
	for len(data) >= 13 {
		kind := data[0]
		tag := int64(binary.LittleEndian.Uint64(data[1:9]))
		n := uint64(binary.LittleEndian.Uint32(data[9:13]))
		data = data[13:]
		switch kind {
		case frameMsg:
			if n > maxFrameLen {
				return msgs, pipePeer
			}
		case frameAbort:
			if n > maxAbortReason {
				return msgs, pipePeer
			}
		case framePing, framePong, frameBye:
			if n > 0 {
				return msgs, pipePeer
			}
		default:
			return msgs, pipePeer
		}
		if uint64(len(data)) < n {
			return msgs, pipePeer // truncated payload
		}
		payload := data[:n]
		data = data[n:]
		switch kind {
		case frameMsg:
			msgs = append(msgs, transport.Message{Src: pipePeer, Tag: tag, Payload: payload})
		case frameBye:
			return msgs, -1
		case frameAbort:
			if tag >= 0 && tag < pipeSize {
				return msgs, int(tag)
			}
			return msgs, pipePeer
		}
	}
	return msgs, pipePeer // truncated header or end of stream without BYE
}

// checkFailure requires exactly one RankFailure, naming rank.
func checkFailure(t *testing.T, run readerRun, rank int) *transport.RankFailure {
	t.Helper()
	if len(run.fails) != 1 {
		t.Fatalf("reader reported %d failures, want exactly one: %v", len(run.fails), run.fails)
	}
	var rf *transport.RankFailure
	if !errors.As(run.fails[0], &rf) || rf.Rank != rank {
		t.Fatalf("failure %v, want a RankFailure naming rank %d", run.fails[0], rank)
	}
	return rf
}

// TestReaderRefusesUnbackedFrameLength: a peer announcing the largest frame
// the protocol allows and then closing costs the reader no payload memory,
// not the announced 2 GiB, and ends in one failure naming the peer.
func TestReaderRefusesUnbackedFrameLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run := runReader(header(frameMsg, 7, maxFrameLen))
	runtime.ReadMemStats(&after)
	checkFailure(t, run, pipePeer)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("reader allocated %d MiB for a frame whose bytes never came", grew>>20)
	}
}

// TestReaderDeliversLargeFrames: payloads above one read step — allocated
// once up to payloadGrowth steps, grown beyond — arrive intact.
func TestReaderDeliversLargeFrames(t *testing.T) {
	var data []byte
	var sent [][]byte
	for i, n := range []int{readChunk + 1, 3 * readChunk, 9*readChunk + 3} {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(j*7 + i)
		}
		sent = append(sent, payload)
		data = append(data, frame(frameMsg, int64(i), payload)...)
	}
	run := runReader(append(data, frame(frameBye, 0, nil)...))
	if len(run.fails) != 0 || run.pushes != len(sent) {
		t.Fatalf("reader: %d messages, failures %v", run.pushes, run.fails)
	}
	for i, want := range sent {
		if m, _, ok := run.box.Take(pipePeer, int64(i)); !ok || !bytes.Equal(m.Payload, want) {
			t.Fatalf("frame %d (%d bytes) corrupted", i, len(want))
		}
	}
}

// TestReaderRefusesMalformedHeaders: each header the protocol forbids is
// refused before any payload is read, as one failure naming the peer.
func TestReaderRefusesMalformedHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  []byte
		want string
	}{
		{"oversized", header(frameMsg, 0, maxFrameLen+1), "oversized frame"},
		{"ping with payload", header(framePing, 0, 1), "control frame 0x04"},
		{"pong with payload", header(framePong, 0, 1), "control frame 0x05"},
		{"bye with payload", header(frameBye, 0, 1), "control frame 0x03"},
		{"long abort reason", header(frameAbort, -1, maxAbortReason+1), "abort reason"},
		{"unknown kind", header(0x7f, 0, 0), "unknown frame kind 0x7f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rf := checkFailure(t, runReader(tc.hdr), pipePeer)
			if !strings.Contains(rf.Err.Error(), tc.want) {
				t.Fatalf("failure %v does not say %q", rf, tc.want)
			}
		})
	}
}

// TestAbortTruncatesReason: Abort never sends a reason its peers would
// refuse.
func TestAbortTruncatesReason(t *testing.T) {
	eps := mesh(t, 2)
	fails := make(chan error, 1)
	eps[1].SetFailureHandler(func(err error) { fails <- err })
	eps[0].Abort(-1, strings.Repeat("x", 2*maxAbortReason))
	err := <-fails
	if !strings.Contains(err.Error(), "aborted the job") || !strings.Contains(err.Error(), strings.Repeat("x", maxAbortReason)) {
		t.Fatalf("long abort reason was not delivered truncated: %.200v", err)
	}
}

// FuzzFrameReader feeds arbitrary bytes from a fake peer to the frame
// reader. It must never panic, every MSG it delivers must carry exactly the
// bytes that were sent, and a stream that does not end in BYE must end in
// exactly one RankFailure naming the rank the reference decoder blames: the
// peer, or an abort's in-range origin. The seed corpus is in
// testdata/fuzz/FuzzFrameReader.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, blamed := wantReader(data)
		run := runReader(data)
		if blamed < 0 {
			if len(run.fails) != 0 {
				t.Fatalf("clean BYE ending reported failures: %v", run.fails)
			}
		} else {
			checkFailure(t, run, blamed)
		}
		if run.pushes != len(msgs) {
			t.Fatalf("reader delivered %d messages, want %d", run.pushes, len(msgs))
		}
		for i, want := range msgs {
			got, _, ok := run.box.Take(want.Src, want.Tag)
			if !ok || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("message %d (tag %d): got %q (ok=%v), want %q", i, want.Tag, got.Payload, ok, want.Payload)
			}
		}
	})
}
