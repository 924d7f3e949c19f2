// Package fasta provides FASTA parsing/serialization and the distributed
// read store used throughout the pipeline (Algorithm 1 line 2 and the read
// sequence communication of §4.3).
//
// Read is where sequence bytes enter the program. It refuses any byte but a
// letter, and it upper-cases the letters: the k-mer stage reads acgt as ACGT
// but the aligners compare raw bytes, so a soft-masked (lower-case) read
// would seed overlaps it can never align. Everything past Read sees letters
// of one case.
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode"
)

// Record is one FASTA entry.
type Record struct {
	ID  string
	Seq []byte
}

// Read parses all records from r. Sequence lines may be wrapped; blank lines
// are ignored; the ID is the header up to the first whitespace. A sequence
// line holds ASCII letters only, anything else is an error naming the line
// and the byte, so no byte Write could wrap to the start of a line reads
// back as a header. Sequence letters are upper-cased (soft-masking is
// dropped).
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var recs []Record
	var cur *Record
	lineno := 0
	for {
		line, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return nil, err
		}
		lineno++
		line = bytes.TrimRight(line, "\r\n")
		if len(line) > 0 {
			if line[0] == '>' {
				id := bytes.TrimLeftFunc(line[1:], unicode.IsSpace)
				if i := bytes.IndexFunc(id, unicode.IsSpace); i >= 0 {
					id = id[:i]
				}
				recs = append(recs, Record{ID: string(id)})
				cur = &recs[len(recs)-1]
			} else {
				if cur == nil {
					return nil, fmt.Errorf("fasta: line %d: sequence data before any header", lineno)
				}
				for i, b := range line {
					// b|0x20 folds A–Z onto a–z and sends every other byte
					// outside it; b&^0x20 is then the upper-case letter.
					if c := b | 0x20; c < 'a' || c > 'z' {
						return nil, fmt.Errorf("fasta: line %d: byte %q at column %d is not a sequence letter", lineno, line[i:i+1], i+1)
					}
					line[i] = b &^ 0x20
				}
				cur.Seq = append(cur.Seq, line...)
			}
		}
		if atEOF {
			break
		}
	}
	return recs, nil
}

// ReadSeqs parses r and returns just the sequences, the pipeline's input
// shape.
func ReadSeqs(r io.Reader) ([][]byte, error) {
	recs, err := Read(r)
	if err != nil {
		return nil, err
	}
	seqs := make([][]byte, len(recs))
	for i, rec := range recs {
		seqs[i] = rec.Seq
	}
	return seqs, nil
}

// Write serializes records to w with lines wrapped at width columns
// (0 means no wrapping).
func Write(w io.Writer, recs []Record, width int) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.ID); err != nil {
			return err
		}
		seq := rec.Seq
		if width <= 0 {
			if _, err := bw.Write(seq); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			continue
		}
		for off := 0; off < len(seq); off += width {
			end := off + width
			if end > len(seq) {
				end = len(seq)
			}
			if _, err := bw.Write(seq[off:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		if len(seq) == 0 {
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
