package main

import (
	"time"

	"repro/internal/bidir"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/spmat"
)

const (
	wireBulkBytes     = 64 << 20
	wireStructCount   = 1 << 20
	probePingpongs    = 2000
	probeMessageBytes = 1 << 20
	probeRounds       = 20
)

// bestMBps times fn a few times and returns bytes / fastest run, in MB/s:
// a codec's throughput is a capacity, and the fastest run is the one least
// disturbed by the host.
func bestMBps(bytes int, fn func()) float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		t := time.Now()
		fn()
		if d := time.Since(t).Seconds(); d > 0 {
			best = max(best, float64(bytes)/1e6/d)
		}
	}
	return best
}

// setWireProbes measures the codec's two paths: a []byte goes through the
// bulk copy, a slice of structs field by field.
func setWireProbes(rec *runRecord) {
	bulk := make([]byte, wireBulkBytes)
	for i := range bulk {
		bulk[i] = byte(i)
	}
	var frame []byte
	rec.set("wire.marshal_mb_s", bestMBps(len(bulk), func() { frame = wire.Marshal(bulk) }))
	rec.set("wire.unmarshal_mb_s", bestMBps(len(bulk), func() {
		if _, err := wire.Unmarshal[byte](frame); err != nil {
			rec.fail("wire: bulk frame does not decode: %v", err)
		}
	}))

	ts := make([]spmat.Triple[bidir.Edge], wireStructCount)
	for i := range ts {
		ts[i] = spmat.Triple[bidir.Edge]{Row: int32(i), Col: int32(i >> 1),
			Val: bidir.Edge{Dir: uint8(i & 3), Suf: int32(i), Pre: int32(i) - 1, Post: int32(i) + 1}}
	}
	frame = wire.Marshal(ts)
	payload := int(wire.DataLen(frame))
	rec.set("wire.marshal_struct_mb_s", bestMBps(payload, func() { frame = wire.Marshal(ts) }))
	var back []spmat.Triple[bidir.Edge]
	rec.set("wire.unmarshal_struct_mb_s", bestMBps(payload, func() {
		var err error
		if back, err = wire.Unmarshal[spmat.Triple[bidir.Edge]](frame); err != nil {
			rec.fail("wire: struct frame does not decode: %v", err)
		}
	}))
	if len(back) != len(ts) || back[len(back)-1] != ts[len(ts)-1] {
		rec.fail("wire: struct frame round trip changed the data")
	}
}

// setMPIProbes measures the runtime on a fresh world of the workload's own
// kind: small-message latency, all-to-all bandwidth and broadcast bandwidth.
func setMPIProbes(rec *runRecord, newWorld func() (*mpi.World, error)) {
	w, err := newWorld()
	if err != nil {
		rec.fail("mpi probe world: %v", err)
		return
	}
	defer w.Close()
	var pingpong, alltoall, bcast float64 // seconds, stamped by rank 0
	err = w.Run(func(c *mpi.Comm) {
		p := c.Size()
		timed := func(fn func()) float64 {
			mpi.Barrier(c)
			t := time.Now()
			fn()
			mpi.Barrier(c)
			return time.Since(t).Seconds()
		}
		small := make([]byte, 8)
		d := timed(func() {
			for i := 0; i < probePingpongs; i++ {
				switch c.Rank() {
				case 0:
					mpi.Send(c, 1, int64(i), small)
					mpi.Recv[byte](c, 1, int64(i))
				case 1:
					mpi.Send(c, 0, int64(i), mpi.Recv[byte](c, 0, int64(i)))
				}
			}
		})
		big := make([]byte, probeMessageBytes)
		send := make([][]byte, p)
		for r := range send {
			send[r] = big
		}
		a := timed(func() {
			for i := 0; i < probeRounds; i++ {
				mpi.Alltoallv(c, send)
			}
		})
		b := timed(func() {
			for i := 0; i < probeRounds; i++ {
				var data []byte
				if c.Rank() == 0 {
					data = big
				}
				mpi.Bcast(c, 0, data)
			}
		})
		if c.Rank() == 0 {
			pingpong, alltoall, bcast = d, a, b
		}
	})
	if err != nil {
		rec.fail("mpi probe: %v", err)
		return
	}
	p := float64(w.Size())
	moved := float64(probeRounds*probeMessageBytes) / 1e6
	rec.set("mpi.pingpong_us", pingpong/probePingpongs*1e6)
	rec.set("mpi.alltoallv_mb_s", ratio(moved*p*(p-1), alltoall))
	rec.set("mpi.bcast_mb_s", ratio(moved*(p-1), bcast))
}
