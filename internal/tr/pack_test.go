package tr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bidir"
	"repro/internal/mpi/wire"
)

func TestPackRoundTrips(t *testing.T) {
	for d := uint8(0); d < 4; d++ {
		for _, suf := range []int32{0, 1, inf - 1} {
			p := pack(3, 5, bidir.Edge{Dir: d, Suf: suf, Pre: 7, Post: 9})
			if p.dir() != d || p.suf() != suf {
				t.Errorf("pack(Dir %d, Suf %d) unpacks to Dir %d, Suf %d", d, suf, p.dir(), p.suf())
			}
		}
	}
}

func TestPackRefusesWhatItCannotHold(t *testing.T) {
	for _, e := range []bidir.Edge{{Dir: 1, Suf: -1}, {Dir: 2, Suf: inf}, {Dir: 4, Suf: 10}} {
		t.Run(fmt.Sprintf("%+v", e), func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("edge (3,5) %+v", e); !strings.Contains(msg, want) {
					t.Fatalf("pack panicked with %q, want a message naming %q", msg, want)
				}
			}()
			pack(3, 5, e)
		})
	}
}

// TestPackedIsDense pins what the packed value is for: a panel of a dense
// type is a view of its frame, so a field change that made it non-dense
// would bring back the encode and decode copies without failing anything
// else.
func TestPackedIsDense(t *testing.T) {
	if !wire.Dense[packed]() || wire.Width[packed]() != 4 {
		t.Fatalf("packed: Dense %v, wire width %d; want a dense 4-byte value", wire.Dense[packed](), wire.Width[packed]())
	}
}
