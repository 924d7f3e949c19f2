package mpi

// Collectives built on point-to-point exchange. Every collective must be
// called by all ranks of the communicator in the same order (the standard
// MPI matching rule); each call consumes one sequence number that becomes
// the message tag, so back-to-back collectives never cross-match.

import (
	"fmt"

	"repro/internal/mpi/wire"
)

// collTag derives the private tag for one collective call.
func collTag(c *Comm) int64 {
	return -int64(c.nextSeq())
}

// Barrier blocks until every rank of the communicator has entered it.
func Barrier(c *Comm) {
	tag := collTag(c)
	p := c.Size()
	if p == 1 {
		return
	}
	// Dissemination barrier: log2(p) rounds.
	for off := 1; off < p; off *= 2 {
		dst := (c.rank + off) % p
		src := (c.rank - off + p) % p
		SendOne(c, dst, tag, struct{}{})
		RecvOne[struct{}](c, src, tag)
	}
}

// Bcast distributes root's data to every rank and returns it. Non-root ranks
// may pass nil. Binomial tree, log2(p) rounds.
func Bcast[T any](c *Comm, root int, data []T) []T {
	var frame []byte
	if c.rank == root {
		frame = wire.Marshal(data)
	}
	return mustUnmarshal[T](bcastFrames(c, root, collTag(c), frame, armedNow))
}

// bcastFrames is the binomial-tree broadcast body shared by Bcast and
// IBcast, operating on an encoded frame: the root encodes once and every
// hop forwards the frame verbatim, so all P-1 tree messages carry identical
// bytes and the per-hop counters match a fresh Send exactly. The tag is
// pre-reserved so background goroutines never touch the communicator's
// sequence counter, and the parent receive's deadlock watchdog arms per the
// armed channel (immediately for the blocking Bcast, at Wait for IBcast).
func bcastFrames(c *Comm, root int, tag int64, frame []byte, armed <-chan struct{}) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := (c.rank - mask + p) % p
			frame = c.recvRawArmed(parent, tag, armed)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			dst := (c.rank + mask) % p
			c.sendRaw(dst, tag, frame, wire.DataLen(frame))
		}
	}
	return frame
}

// Gatherv collects a variable-length slice from every rank at root; root
// receives per-rank slices, others nil.
func Gatherv[T any](c *Comm, root int, local []T) [][]T {
	tag := collTag(c)
	if c.rank != root {
		Send(c, root, tag, local)
		return nil
	}
	out := make([][]T, c.Size())
	cp := make([]T, len(local))
	copy(cp, local)
	out[root] = cp
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		out[r] = Recv[T](c, r, tag)
	}
	return out
}

// Scatterv distributes parts[r] from root to rank r. Non-root ranks pass nil.
func Scatterv[T any](c *Comm, root int, parts [][]T) []T {
	tag := collTag(c)
	if c.rank == root {
		if len(parts) != c.Size() {
			panic("mpi: Scatterv needs one part per rank")
		}
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			Send(c, r, tag, parts[r])
		}
		cp := make([]T, len(parts[root]))
		copy(cp, parts[root])
		return cp
	}
	return Recv[T](c, root, tag)
}

// Allgather collects one value from every rank on every rank.
func Allgather[T any](c *Comm, v T) []T {
	tag := collTag(c)
	p := c.Size()
	out := make([]T, p)
	out[c.rank] = v
	// Ring: p-1 steps, each forwarding the block received last step.
	cur := v
	curIdx := c.rank
	for step := 0; step < p-1; step++ {
		dst := (c.rank + 1) % p
		src := (c.rank - 1 + p) % p
		type blk struct {
			Idx int
			V   T
		}
		SendOne(c, dst, tag, blk{Idx: curIdx, V: cur})
		b := RecvOne[blk](c, src, tag)
		out[b.Idx] = b.V
		cur, curIdx = b.V, b.Idx
	}
	return out
}

// Allgatherv collects a variable-length slice from every rank on every rank,
// returned as per-rank slices.
func Allgatherv[T any](c *Comm, local []T) [][]T {
	tag := collTag(c)
	p := c.Size()
	out := make([][]T, p)
	cp := make([]T, len(local))
	copy(cp, local)
	out[c.rank] = cp
	cur, curIdx := local, c.rank
	for step := 0; step < p-1; step++ {
		dst := (c.rank + 1) % p
		src := (c.rank - 1 + p) % p
		SendOne(c, dst, tag, int64(curIdx))
		Send(c, dst, tag, cur)
		idx := int(RecvOne[int64](c, src, tag))
		blk := Recv[T](c, src, tag)
		out[idx] = blk
		cur, curIdx = blk, idx
	}
	return out
}

// AllgathervFlat collects variable-length slices and concatenates them in
// rank order, also returning the per-rank counts.
func AllgathervFlat[T any](c *Comm, local []T) ([]T, []int) {
	parts := Allgatherv(c, local)
	counts := make([]int, len(parts))
	total := 0
	for i, p := range parts {
		counts[i] = len(p)
		total += len(p)
	}
	flat := make([]T, 0, total)
	for _, p := range parts {
		flat = append(flat, p...)
	}
	return flat, counts
}

// Alltoallv sends send[r] to rank r and returns recv where recv[r] came from
// rank r. This is the paper's "custom all-to-all" used to redistribute
// matrix triples and read sequences. Its contract is the one all four
// all-to-alls keep:
//   - every pairwise message goes through the chunked protocol (SendChunked,
//     RecvChunked), so none exceeds MaxMessageBytes however large a part is,
//     and a part that fits is the one message Send would send; T must be
//     fixed-width;
//   - passing send gives its buffers away: recv[c.Rank()] is send[c.Rank()]
//     itself, not a copy, so the caller must not write any send buffer
//     afterwards.
func Alltoallv[T any](c *Comm, send [][]T) [][]T {
	checkParts(c, len(send), "Alltoallv")
	return alltoallv(c, send[c.rank], func(c *Comm, dst int, tag int64) {
		SendChunked(c, dst, tag, send[dst])
	})
}

// AlltoallvBytes is Alltoallv for potentially huge byte buffers the caller
// packed in place and gives away (see ByteBuf), with no copy of a buffer into
// a frame or of the caller's own into recv.
func AlltoallvBytes(c *Comm, send []ByteBuf) [][]byte {
	checkParts(c, len(send), "AlltoallvBytes")
	return alltoallv(c, send[c.rank].payload, func(c *Comm, dst int, tag int64) {
		sendChunkedBuf(c, dst, tag, send[dst])
	})
}

// alltoallv is the pairwise loop of the blocking all-to-alls, shaped like
// iAlltoallv: self is the caller's own part of the result, and sendTo ships
// the part for dst, chunked. Every send goes first — sends are buffered, so
// the schedule cannot deadlock — then every receive.
func alltoallv[T any](c *Comm, self []T, sendTo func(c *Comm, dst int, tag int64)) [][]T {
	tag := collTag(c)
	p := c.Size()
	recv := make([][]T, p)
	recv[c.rank] = self
	for off := 1; off < p; off++ {
		sendTo(c, (c.rank+off)%p, tag)
	}
	for off := 1; off < p; off++ {
		src := (c.rank - off + p) % p
		recv[src] = RecvChunked[T](c, src, tag)
	}
	return recv
}

// checkParts panics unless an all-to-all was handed one part per rank.
func checkParts(c *Comm, n int, op string) {
	if n != c.Size() {
		panic(fmt.Sprintf("mpi: %s needs one part per rank, got %d for %d ranks", op, n, c.Size()))
	}
}

// Reduce folds one value per rank with op at root (op must be associative
// and commutative). Non-root ranks receive the zero value.
func Reduce[T any](c *Comm, root int, v T, op func(T, T) T) T {
	tag := collTag(c)
	p := c.Size()
	// Binomial tree reduction in coordinates shifted so root is 0.
	vrank := (c.rank - root + p) % p
	acc := v
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			SendOne(c, parent, tag, acc)
			var zero T
			return zero
		}
		if vrank|mask < p {
			child := ((vrank | mask) + root) % p
			acc = op(acc, RecvOne[T](c, child, tag))
		}
		mask <<= 1
	}
	return acc
}

// Allreduce folds one value per rank with op and distributes the result.
func Allreduce[T any](c *Comm, v T, op func(T, T) T) T {
	total := Reduce(c, 0, v, op)
	res := Bcast(c, 0, []T{total})
	return res[0]
}

// ReduceSlice element-wise folds equal-length slices at root.
func ReduceSlice[T any](c *Comm, root int, vals []T, op func(T, T) T) []T {
	tag := collTag(c)
	p := c.Size()
	vrank := (c.rank - root + p) % p
	acc := make([]T, len(vals))
	copy(acc, vals)
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % p
			Send(c, parent, tag, acc)
			return nil
		}
		if vrank|mask < p {
			child := ((vrank | mask) + root) % p
			other := Recv[T](c, child, tag)
			if len(other) != len(acc) {
				panic("mpi: ReduceSlice length mismatch across ranks")
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
		mask <<= 1
	}
	return acc
}

// AllreduceSlice element-wise folds equal-length slices on every rank.
func AllreduceSlice[T any](c *Comm, vals []T, op func(T, T) T) []T {
	acc := ReduceSlice(c, 0, vals, op)
	return Bcast(c, 0, acc)
}

// ReduceScatterBlocks reduces P per-rank contribution blocks element-wise and
// scatters block r to rank r: rank i passes contrib[r] destined for rank r,
// and receives op-folded contrib_allranks[i] (op must be associative and
// commutative). This is the paper's MPI_Reduce_scatter; package spmat's row
// reductions call it. Like Alltoallv it takes contrib: the result is folded
// into contrib[c.Rank()] in place.
func ReduceScatterBlocks[T any](c *Comm, contrib [][]T, op func(T, T) T) []T {
	parts := Alltoallv(c, contrib)
	acc := parts[c.rank] // contrib[c.rank], given away
	for r, p := range parts {
		if len(p) != len(acc) {
			panic("mpi: ReduceScatterBlocks block length mismatch")
		}
		if r == c.rank {
			continue
		}
		for i := range acc {
			acc[i] = op(acc[i], p[i])
		}
	}
	return acc
}

// Exscan returns the op-fold of the values of ranks strictly below the
// caller (zero value on rank 0); used to assign globally consecutive ids.
func Exscan[T any](c *Comm, v T, op func(T, T) T) T {
	all := Allgather(c, v)
	var acc T
	for r := 0; r < c.rank; r++ {
		if r == 0 {
			acc = all[0]
		} else {
			acc = op(acc, all[r])
		}
	}
	return acc
}
