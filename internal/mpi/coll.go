package mpi

// Collectives built on point-to-point exchange. Every collective must be
// called by all ranks of the communicator in the same order (the standard
// MPI matching rule); each call consumes one sequence number that becomes
// the message tag, so back-to-back collectives never cross-match.

import (
	"fmt"
	"slices"

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
// hop forwards the frame it received (sendFrame, recvFrame). The tag is
// pre-reserved so background goroutines never touch the communicator's
// sequence counter, and the parent receive's deadlock watchdog arms per the
// armed channel (immediately for the blocking Bcast, at Wait for IBcast).
func bcastFrames(c *Comm, root int, tag int64, frame []byte, armed <-chan struct{}) []byte {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			frame = recvFrame(c, (c.rank-mask+p)%p, tag, armed)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < p {
			sendFrame(c, (c.rank+mask)%p, tag, frame)
		}
	}
	return frame
}

// SwapFrame sends frame to partner and returns the frame partner sent this
// rank under the same tag (both must call it): the pairwise exchange of an
// encoded frame its receiver decodes itself, such as a SUMMA panel
// (grid.TransposedFrame). Each frame crosses as one hop of a broadcast does,
// so a one-value frame, which a chunked frame's count would read as, is
// refused. Passing frame gives it away; in process the partner holds the
// very same bytes.
func SwapFrame(c *Comm, partner int, tag int64, frame []byte) []byte {
	if wire.IsOne(frame) {
		panic("mpi: SwapFrame of a one-value frame, which a chunked frame's count would read as")
	}
	sendFrame(c, partner, tag, frame)
	return recvFrame(c, partner, tag, armedNow)
}

// sendFrame sends an encoded frame to dst as one hop of a frame relay. A
// frame that fits MaxMessageBytes crosses verbatim, so its counters match a
// fresh Send exactly; a larger one is chunked as SendChunked chunks a
// []byte, and recvFrame puts it back together in a fresh allocation, which
// keeps an aligned frame 8-byte aligned.
func sendFrame(c *Comm, dst int, tag int64, frame []byte) {
	if n := wire.DataLen(frame); n <= MaxMessageBytes {
		c.sendRaw(dst, tag, frame, n)
		return
	}
	SendChunked(c, dst, tag, frame)
}

// recvFrame receives the frame sendFrame sent from src: the message itself,
// or, when it is a one-value count, the frame's chunks joined.
func recvFrame(c *Comm, src int, tag int64, armed <-chan struct{}) []byte {
	frame := c.recvRawArmed(src, tag, armed)
	if wire.IsOne(frame) {
		return recvSplit[byte](c, src, tag, frame, armed)
	}
	return frame
}

// Gatherv collects a variable-length slice from every rank at root; root
// receives per-rank slices, others nil. Passing local gives it away: root's
// own part is local itself.
func Gatherv[T any](c *Comm, root int, local []T) [][]T {
	tag := collTag(c)
	if c.rank != root {
		sendPart(c, root, tag, local)
		return nil
	}
	out := make([][]T, c.Size())
	out[root] = local
	for r := range out {
		if r != root {
			out[r] = RecvChunked[T](c, r, tag)
		}
	}
	return out
}

// Scatterv distributes parts[r] from root to rank r and gives the parts
// away: root gets parts[root] itself. Non-root ranks pass nil.
func Scatterv[T any](c *Comm, root int, parts [][]T) []T {
	tag := collTag(c)
	if c.rank != root {
		return RecvChunked[T](c, root, tag)
	}
	checkParts(c, len(parts), "Scatterv")
	for r, part := range parts {
		if r != root {
			sendPart(c, r, tag, part)
		}
	}
	return parts[root]
}

// Allgather collects one value from every rank on every rank.
func Allgather[T any](c *Comm, v T) []T {
	flat, _ := AllgathervFlat(c, []T{v})
	return flat
}

// Allgatherv collects a variable-length slice from every rank on every rank,
// returned as per-rank slices: the all-to-all loop with every rank's part
// its own local, so each rank sends p-1 parts. Passing local gives it away:
// the result's own part is local itself.
func Allgatherv[T any](c *Comm, local []T) [][]T {
	return alltoallv(c, local, func(c *Comm, dst int, tag int64) {
		sendPart(c, dst, tag, local)
	})
}

// AllgathervFlat collects variable-length slices and concatenates them in
// rank order, also returning the per-rank counts.
func AllgathervFlat[T any](c *Comm, local []T) ([]T, []int) {
	parts := Allgatherv(c, local)
	counts := make([]int, len(parts))
	for i, p := range parts {
		counts[i] = len(p)
	}
	return slices.Concat(parts...), counts
}

// Alltoallv sends send[r] to rank r and returns recv where recv[r] came from
// rank r. This is the paper's "custom all-to-all" used to redistribute
// matrix triples and read sequences. Its contract is the one every
// collective keeps (the gathers run this same pairwise loop):
//   - every pairwise message goes through the chunked protocol (SendChunked,
//     RecvChunked), so none exceeds MaxMessageBytes however large a part is,
//     and a part that fits is one aligned frame, copied once from send and,
//     for a dense T, read by its receiver as a view; T must be fixed-width
//     (a gather or scatter sends a variable-width part as its frame's
//     bytes);
//   - passing send gives its buffers away: recv[c.Rank()] is send[c.Rank()]
//     itself, not a copy, so the caller must not write any send buffer
//     afterwards.
//
// AlltoallvBufs and IAlltoallv, the nonblocking form, take Bufs, in which a
// dense part reaches the transport without the copy.
func Alltoallv[T any](c *Comm, send [][]T) [][]T {
	checkParts(c, len(send), "Alltoallv")
	return alltoallv(c, send[c.rank], func(c *Comm, dst int, tag int64) {
		SendChunked(c, dst, tag, send[dst])
	})
}

// AlltoallvBufs is the blocking IAlltoallv: Alltoallv of Bufs the caller
// packed in place and gives away, so a dense part that fits one message is
// not copied into a frame, and the caller's own is recv[c.Rank()].
func AlltoallvBufs[T any](c *Comm, send []Buf[T]) [][]T {
	checkParts(c, len(send), "AlltoallvBufs")
	return alltoallv(c, send[c.rank].elems, func(c *Comm, dst int, tag int64) { SendBuf(c, dst, tag, send[dst]) })
}

// AlltoallvBytes is AlltoallvBufs of byte buffers.
func AlltoallvBytes(c *Comm, send []ByteBuf) [][]byte { return AlltoallvBufs(c, send) }

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
	var acc T
	if all := ReduceSlice(c, root, []T{v}, op); all != nil {
		acc = all[0]
	}
	return acc
}

// Allreduce folds one value per rank with op and distributes the result.
func Allreduce[T any](c *Comm, v T, op func(T, T) T) T {
	return AllreduceSlice(c, []T{v}, op)[0]
}

// ReduceSlice element-wise folds equal-length slices at root (nil
// elsewhere): the one reduction tree, binomial in coordinates shifted so
// root is 0.
func ReduceSlice[T any](c *Comm, root int, vals []T, op func(T, T) T) []T {
	tag := collTag(c)
	p := c.Size()
	vrank := (c.rank - root + p) % p
	acc := make([]T, len(vals))
	copy(acc, vals)
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			sendPart(c, ((vrank&^mask)+root)%p, tag, acc)
			return nil
		}
		if vrank|mask < p {
			other := RecvChunked[T](c, ((vrank|mask)+root)%p, tag)
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
