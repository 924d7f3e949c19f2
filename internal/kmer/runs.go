package kmer

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/dna"
)

// A run part is what one rank routes to one owner in Count: the maximal runs
// of its reads' consecutive kept k-mer windows that share that owner (a
// dropped duplicate window, an invalid base or a change of owner ends a run),
// in stream order, each as one record:
//
//	dread  uvarint: the run's read minus the previous record's read; the
//	       first record's previous read is lo−1, one before the sender's
//	       first read, so 0 means "the same read" and a part's reads never
//	       go backwards
//	gap    uvarint: the run's first window minus the end of the previous
//	       record's run on the same read (its first window plus its k-mer
//	       count), or the first window itself on a new read
//	n      uvarint: the run's k-mer count, 1..maxRun
//	bases  ⌈(n+k−1)/4⌉ bytes: the n+k−1 bases the run spans, 2 bits each
//	       (dna.Code), four to a byte, the first base in the high bits; the
//	       bits after the last base are zero
//
// Every varint is minimal. The owner rolls a k-mer encoder over the bases,
// so the part stands for its n canonical k-mers in order, each with its read
// and position — the header is per run, not per k-mer — and with no k-mer
// word on the wire. The element type is the byte, whose wire fingerprint is
// not uint64's: a build that routes k-mer words refuses the frame instead of
// counting its bytes as k-mers.

// maxRun is the most k-mers one record holds; a longer run is cut.
const maxRun = 1<<16 - 1

// maxPos is the last window position an Occur can hold.
const maxPos = math.MaxInt32

// runBytes is the length of the record of a run of n k-mers of length k
// whose header deltas are dread and gap.
func runBytes(dread, gap uint64, n, k int) int {
	return uvarintLen(dread) + uvarintLen(gap) + uvarintLen(uint64(n)) + (n+k+2)/4
}

// uvarintLen is the byte length of v's minimal uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// appendRun appends to dst the record of the run of n k-mers whose header
// deltas are dread and gap and whose bases are seq, n+k−1 of them, all ACGT.
func appendRun(dst []byte, dread, gap uint64, seq []byte, n int) []byte {
	dst = binary.AppendUvarint(dst, dread)
	dst = binary.AppendUvarint(dst, gap)
	dst = binary.AppendUvarint(dst, uint64(n))
	at := len(dst)
	dst = slices.Grow(dst, (len(seq)+3)/4)[:at+(len(seq)+3)/4]
	out := dst[at:]
	full := len(seq) &^ 3
	for j := 0; j < full; j += 4 {
		out[j>>2] = dna.Code(seq[j])<<6 | dna.Code(seq[j+1])<<4 | dna.Code(seq[j+2])<<2 | dna.Code(seq[j+3])
	}
	if full < len(seq) {
		var b byte
		for j := full; j < full+4; j++ {
			b <<= 2
			if j < len(seq) {
				b |= dna.Code(seq[j])
			}
		}
		out[full>>2] = b
	}
	return dst
}

// runHeaders tracks, per owner, the read and run end a record's deltas are
// taken from: the sender's side of the header (route) and the owner's
// (runCursor), which follow the same rule.
type runHeaders struct {
	read []int
	end  []int
}

// newRunHeaders starts p owners' parts from a sender whose first read is lo.
func newRunHeaders(lo, p int) *runHeaders {
	h := &runHeaders{read: make([]int, p), end: make([]int, p)}
	for o := range h.read {
		h.read[o] = lo - 1
	}
	return h
}

// next returns the deltas of owner o's next record, a run of n windows of
// read from window start, and moves o's part past it.
func (h *runHeaders) next(o, read, start, n int) (dread, gap uint64) {
	dread = uint64(read - h.read[o])
	if dread > 0 {
		h.read[o], h.end[o] = read, 0
	}
	gap = uint64(start - h.end[o])
	h.end[o] = start + n
	return dread, gap
}

// runCursor walks the records of one accepted part: the read and first
// window of each run, from the deltas of its header.
type runCursor struct {
	part      []byte
	off       int
	read, end int
}

func newRunCursor(part []byte, lo int) runCursor { return runCursor{part: part, read: lo - 1} }

// next decodes the next record: its read, its first window, its k-mer count
// and its packed bases. ok is false past the last record.
func (c *runCursor) next(k int) (read, start, n int, bases []byte, ok bool) {
	if c.off >= len(c.part) {
		return 0, 0, 0, nil, false
	}
	p := c.part[c.off:]
	dread, a := binary.Uvarint(p)
	gap, b := binary.Uvarint(p[a:])
	nn, d := binary.Uvarint(p[a+b:])
	if dread > 0 {
		c.read += int(dread)
		c.end = 0
	}
	n, start = int(nn), c.end+int(gap)
	c.end = start + n
	h := a + b + d
	bases = p[h : h+(n+k+2)/4]
	c.off += h + len(bases)
	return c.read, start, n, bases, true
}

// uvarintAt decodes the minimal uvarint at part[off:], or says why it
// cannot.
func uvarintAt(part []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(part[off:])
	switch {
	case n == 0:
		return 0, 0, fmt.Errorf("record at byte %d: the part ends inside its header", off)
	case n < 0:
		return 0, 0, fmt.Errorf("record at byte %d: a header field overflows 64 bits", off)
	case n > 1 && part[off+n-1] == 0:
		return 0, 0, fmt.Errorf("record at byte %d: a header field is not a minimal varint", off)
	}
	return v, n, nil
}

// checkRuns walks the records of a run part sent by the rank whose reads are
// [lo, hi) and returns how many k-mers of length k it holds, or an error for
// the first record that is malformed: a header cut short or not minimal, a
// read outside [lo, hi) (a part's reads never go backwards), a run whose
// windows pass Occur's last position, a zero-length or over-long run, a run
// whose bases pass the part's end, or a last byte with bits set after the
// run's last base.
func checkRuns(part []byte, k, lo, hi int) (int, error) {
	occ, read, end := 0, lo-1, 0
	for off := 0; off < len(part); {
		at := off
		var f [3]uint64
		for i := range f {
			v, n, err := uvarintAt(part, off)
			if err != nil {
				return 0, err
			}
			f[i] = v
			off += n
		}
		dread, gap, n := f[0], f[1], f[2]
		if dread > uint64(hi-1-read) || (dread == 0 && read < lo) {
			return 0, fmt.Errorf("record at byte %d: read %d+%d is outside the sender's reads [%d,%d)", at, read, dread, lo, hi)
		}
		if dread > 0 {
			read += int(dread)
			end = 0
		}
		if n == 0 || n > maxRun {
			return 0, fmt.Errorf("record at byte %d: a run of %d k-mers, want 1..%d", at, n, maxRun)
		}
		if gap > maxPos || uint64(end)+gap+n-1 > maxPos {
			return 0, fmt.Errorf("record at byte %d: a run of %d k-mers from position %d+%d passes Occur's last position %d", at, n, end, gap, maxPos)
		}
		end += int(gap) + int(n)
		bases := (int(n) + k + 2) / 4
		if bases > len(part)-off {
			return 0, fmt.Errorf("record at byte %d: a run of %d k-mers needs %d bytes of bases, the part ends at %d", at, n, bases, len(part))
		}
		off += bases
		if pad := (4 - (int(n)+k-1)&3) & 3; part[off-1]&(1<<(2*pad)-1) != 0 {
			return 0, fmt.Errorf("record at byte %d: bits set after the run's last base", at)
		}
		occ += int(n)
	}
	return occ, nil
}

// runOccurrences is checkRuns for a part received from rank src, whose
// reads are [lo, hi): the owner's first walk of it, before the counter
// trusts its headers. A malformed part panics naming src.
func runOccurrences(part []byte, k, src, lo, hi int) int {
	occ, err := checkRuns(part, k, lo, hi)
	if err != nil {
		panic(fmt.Sprintf("kmer: run part from rank %d: %v", src, err))
	}
	return occ
}
