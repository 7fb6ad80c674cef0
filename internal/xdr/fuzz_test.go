package xdr

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// FuzzRecRead feeds arbitrary bytes to the record-marking reader: the
// first decode boundary a hostile TCP peer reaches. The reader must
// never panic, never hand out more bytes than arrived, and never
// allocate ahead of the data backing a fragment header's claimed length.
func FuzzRecRead(f *testing.F) {
	// A well-formed single-fragment record.
	f.Add(frame([]byte("hello world!")))
	// A record split across three fragments, and one whose payload fills
	// its fragments exactly and ends in an empty final one.
	f.Add(fragmented(bytes.Repeat([]byte{0xab}, 20), 8))
	f.Add(append(fragment(pattern(8, 1), false), fragment(nil, true)...))
	// Empty non-final fragments around a payload.
	f.Add(append(append(fragment(nil, false), fragment(pattern(5, 2), false)...), fragment(nil, true)...))
	// An empty final fragment, a truncated header, and a fragment header
	// whose length lies far beyond the data behind it.
	f.Add([]byte{0x80, 0, 0, 0})
	f.Add([]byte{0x80, 0})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRecStream(bytes.NewBuffer(data), 0)
		total := 0
		for {
			rec, err := r.ReadRecord(nil)
			if total += len(rec); total > len(data) {
				t.Fatalf("records of %d bytes from %d input bytes", total, len(data))
			}
			if err != nil {
				break
			}
		}
	})
}

// shortReader delivers its input 1..k bytes per Read, the sizes drawn
// from a seeded source: every way a connection can cut the stream.
type shortReader struct {
	data []byte
	rng  *rand.Rand
	k    int
}

func (s *shortReader) Read(p []byte) (int, error) {
	if len(s.data) == 0 {
		return 0, io.EOF
	}
	n := min(1+s.rng.Intn(s.k), len(p), len(s.data))
	copy(p, s.data[:n])
	s.data = s.data[n:]
	return n, nil
}

// errClass reduces a read error to what callers may branch on.
func errClass(err error) string {
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected-eof"
	case errors.Is(err, io.EOF):
		return "eof"
	case errors.Is(err, ErrRecordTooLarge):
		return "too-large"
	}
	return "other: " + err.Error()
}

// refRecords is the reference the window is checked against: the
// records of data and the class of the error that ends them, worked out
// by walking the marks over the whole input.
func refRecords(data []byte, maxRecord int) (recs [][]byte, class string) {
	for len(data) > 0 {
		var rec []byte
		used := 0 // of maxRecord: payload, and 4 per empty non-final fragment
		for last := false; !last; {
			if len(data) < RecordMarkLen {
				return recs, "unexpected-eof"
			}
			u := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
			n := int(u &^ lastFragFlag)
			last = u&lastFragFlag != 0
			cost := n
			if n == 0 && !last {
				cost = RecordMarkLen
			}
			if used += cost; used > maxRecord {
				return recs, "too-large"
			}
			if data = data[RecordMarkLen:]; n > len(data) {
				return recs, "unexpected-eof"
			}
			rec, data = append(rec, data[:n]...), data[n:]
		}
		recs = append(recs, rec)
	}
	return recs, "eof"
}

// FuzzRecReadDiff checks the read-ahead window differentially. The same
// bytes are read through a reader that delivers them whole and through
// one that delivers 1..k bytes per Read, with windows from 16 bytes up:
// both must hand out exactly the records a walk over the marks finds,
// and end with io.EOF when the input stops on a record boundary,
// io.ErrUnexpectedEOF when it stops inside a record, and
// ErrRecordTooLarge where the bound is crossed.
func FuzzRecReadDiff(f *testing.F) {
	two := frame([]byte("hello world!"), bytes.Repeat([]byte{0xcd}, 90))
	f.Add(two, int64(1), uint8(3), uint8(0))
	f.Add(two[:len(two)-5], int64(2), uint8(1), uint8(12))
	f.Add(two[:18], int64(3), uint8(7), uint8(60))
	f.Add([]byte{0, 0, 0, 2, 1, 2, 0x80, 0, 0, 1, 3}, int64(4), uint8(2), uint8(1))
	f.Add([]byte{0x80, 0}, int64(5), uint8(1), uint8(0))
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 1, 2, 3}, int64(6), uint8(4), uint8(200))
	// Empty non-final fragments: a few ahead of a payload, and enough of
	// them alone to spend the whole bound.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 1, 7}, int64(7), uint8(2), uint8(0))
	f.Add(make([]byte, 4*(1<<10+1)), int64(8), uint8(9), uint8(40))
	// Records of several fragments, empty non-final ones among them, read
	// whole and cut short inside the last.
	multi := append(fragmented(pattern(40, 5), 8), fragment(nil, false)...)
	multi = append(append(multi, fragment(pattern(8, 6), false)...), fragment(nil, false)...)
	multi = append(multi, fragmented(pattern(16, 7), 8)...)
	f.Add(multi, int64(9), uint8(6), uint8(0))
	f.Add(multi[:len(multi)-3], int64(10), uint8(2), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, seed int64, k, win uint8) {
		const maxRecord = 1 << 12
		window := 16 + int(win) // bufio's minimum, so every value is a distinct size
		wantRecs, wantClass := refRecords(data, maxRecord)
		whole := NewRecStream(&rwPair{Reader: bytes.NewReader(data)}, window)
		short := NewRecStream(&rwPair{Reader: &shortReader{
			data: data, rng: rand.New(rand.NewSource(seed)), k: 1 + int(k)}}, window)
		for name, r := range map[string]*RecStream{"whole": whole, "short": short} {
			r.MaxRecord = maxRecord
			for i := 0; ; i++ {
				rec, err := r.ReadRecord(nil)
				if err != nil {
					if i != len(wantRecs) || errClass(err) != wantClass {
						t.Fatalf("%s reads: stopped after %d records with %v; want %d records, then %s",
							name, i, err, len(wantRecs), wantClass)
					}
					if atEnd := wantClass == "eof"; r.AtBoundary() != atEnd {
						t.Fatalf("%s reads: AtBoundary = %v after %s", name, !atEnd, wantClass)
					}
					break
				}
				if i >= len(wantRecs) || !bytes.Equal(rec, wantRecs[i]) {
					t.Fatalf("%s reads: record %d = %x, not what the marks say", name, i, rec)
				}
			}
		}
	})
}

// FuzzRecBatcher drives one RecBatcher with an interleaving of Write,
// Queue and Flush calls over records of fuzzed lengths — empty, small,
// about a fragment, and straddling coalesceLimit, so single writes,
// coalesced batches, vectored batches and watermark flushes all occur —
// and reads the wire back with ReadRecord: every record must arrive,
// intact and in the order it was handed in, nothing may follow them,
// and after each Write or Flush nothing may be left pending.
//
// Each step is two bytes: the low two bits of the first pick the call
// (Write, Queue, Flush, or Write with a deadline), the next two the
// length class, and the second byte the offset within the class.
func FuzzRecBatcher(f *testing.F) {
	f.Add([]byte{0, 3})
	f.Add([]byte{1, 0, 1 | 1<<2, 40, 1 | 3<<2, 200, 2, 0})
	f.Add([]byte{1 | 2<<2, 100, 1 | 2<<2, 160, 0 | 1<<2, 7})
	f.Add([]byte{1 | 2<<2, 255, 1 | 2<<2, 255, 3 | 2<<2, 0, 1, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxSteps = 16
		var wire bytes.Buffer
		b := NewRecBatcher(&wire)
		var want [][]byte
		for step := 0; step < maxSteps && len(data) >= 2; step++ {
			op, off := data[0], int(data[1])
			data = data[2:]
			if op&3 == 2 {
				if err := b.Flush(); err != nil {
					t.Fatalf("step %d: Flush: %v", step, err)
				}
				if n := b.Pending(); n != 0 {
					t.Fatalf("step %d: %d records pending after Flush", step, n)
				}
				continue
			}
			var n int
			switch op >> 2 & 3 {
			case 1:
				n = off
			case 2:
				n = DefaultFragmentSize - 128 + off
			case 3:
				n = coalesceLimit - RecordMarkLen - 128 + off
			}
			p := bytes.Repeat([]byte{byte(len(want))}, n) // the order shows
			want = append(want, p)
			var err error
			switch op & 3 {
			case 0:
				err = b.Write(pooled(p))
			case 1:
				err = b.Queue(pooled(p))
			case 3:
				err = b.WriteDeadline(pooled(p), time.Now().Add(time.Hour))
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if n := b.Pending(); op&3 != 1 && n != 0 {
				t.Fatalf("step %d: %d records pending after a Write", step, n)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewRecStream(&rwPair{Reader: &wire}, 0)
		for i, p := range want {
			got, err := r.ReadRecord(nil)
			if err != nil {
				t.Fatalf("record %d of %d: %v", i, len(want), err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("record %d of %d: %d bytes read, %d handed in, or out of order", i, len(want), len(got), len(p))
			}
		}
		if wire.Len() != 0 {
			t.Fatalf("%d bytes follow the %d records", wire.Len(), len(want))
		}
	})
}
