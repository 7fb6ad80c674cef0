package xdr

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// segReader delivers its input one segment per Read — what a socket
// does with the bursts its peer wrote — counting the reads and keeping
// the destination of the last one. Between segments it reports gap, the
// timeout of a quiet connection, once.
type segReader struct {
	segs  [][]byte
	gap   error
	reads int
	last  []byte
}

func (s *segReader) Read(p []byte) (int, error) {
	for len(s.segs) > 0 && len(s.segs[0]) == 0 {
		s.segs = s.segs[1:]
		if s.gap != nil {
			return 0, s.gap
		}
	}
	if len(s.segs) == 0 {
		return 0, io.EOF
	}
	s.reads++
	s.last = p
	n := copy(p, s.segs[0])
	s.segs[0] = s.segs[0][n:]
	return n, nil
}

// fragment frames payload by hand as one fragment: its mark, the top
// bit set on a record's last, then the bytes.
func fragment(payload []byte, last bool) []byte {
	u := uint32(len(payload))
	if last {
		u |= 1 << 31
	}
	return append([]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)}, payload...)
}

// fragmented frames payload as one record of fragments of size bytes,
// the last one shorter or, for an empty payload, empty.
func fragmented(payload []byte, size int) []byte {
	var wire []byte
	for ; len(payload) > size; payload = payload[size:] {
		wire = append(wire, fragment(payload[:size], false)...)
	}
	return append(wire, fragment(payload, true)...)
}

// frame builds the wire bytes of single-fragment records.
func frame(payloads ...[]byte) []byte {
	var wire []byte
	for _, p := range payloads {
		wire = append(wire, fragment(p, true)...)
	}
	return wire
}

func pattern(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*7 + salt
	}
	return p
}

// TestReadAheadReadCounts pins what the window is for, counted on the
// reader under the stream: a burst of records that arrived together
// costs one Read, a lone small record costs one (it was two: mark, then
// payload), and a record larger than the window costs one more for a
// tail that lands in the caller's buffer without passing through the
// window.
func TestReadAheadReadCounts(t *testing.T) {
	t.Run("burst of 8", func(t *testing.T) {
		var recs [][]byte
		for i := 0; i < 8; i++ {
			recs = append(recs, pattern(20*BytesPerUnit, byte(i)))
		}
		src := &segReader{segs: [][]byte{frame(recs...)}}
		r := NewRecStream(&rwPair{Reader: src}, 0)
		for i, want := range recs {
			got, err := r.ReadRecord(nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d: %d bytes, err %v", i, len(got), err)
			}
		}
		if src.reads != 1 {
			t.Fatalf("8 records in one segment cost %d reads, want 1", src.reads)
		}
		if !r.AtBoundary() {
			t.Fatal("burst consumed but the stream is not at a boundary")
		}
	})
	t.Run("one small record", func(t *testing.T) {
		want := pattern(20*BytesPerUnit, 1)
		src := &segReader{segs: [][]byte{frame(want)}}
		got, err := NewRecStream(&rwPair{Reader: src}, 0).ReadRecord(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record: %d bytes, err %v", len(got), err)
		}
		if src.reads != 1 {
			t.Fatalf("a 20-word record cost %d reads, want 1", src.reads)
		}
	})
	t.Run("twice the window", func(t *testing.T) {
		want := pattern(2*DefaultFragmentSize, 2)
		src := &segReader{segs: [][]byte{frame(want)}}
		dst := make([]byte, 0, len(want)) // no regrowth: the tail's address is stable
		got, err := NewRecStream(&rwPair{Reader: src}, 0).ReadRecord(dst)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record: %d bytes, err %v", len(got), err)
		}
		if src.reads > 2 {
			t.Fatalf("a record of twice the window cost %d reads, want <= 2", src.reads)
		}
		// The first read filled the window with the mark and the head of
		// the payload; the second must have been handed dst itself.
		head := DefaultFragmentSize - RecordMarkLen
		if &src.last[0] != &got[head] {
			t.Fatal("the tail of a large record went through the window, not straight into dst")
		}
	})
}

// timeoutErr is the shape of a deadline expiry on a net.Conn.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestReadAheadSurvivesTimeouts pins the consistency contract the idle
// reaper and any retrying caller rest on: a read that fails loses no
// byte already taken off the connection, AtBoundary tells a quiet wire
// from a stalled record, and the read can be resumed where it stopped —
// wherever in the stream the gap falls.
func TestReadAheadSurvivesTimeouts(t *testing.T) {
	first, second := pattern(40, 3), pattern(9000, 4)
	wire := frame(first, second)
	// Cuts: inside the first mark, inside the first payload, inside the
	// second mark (read ahead behind a complete record), inside the
	// second payload's windowed head, and inside its direct-read tail.
	for _, cut := range []int{2, 10, 4 + 40 + 1, 4 + 40 + 4 + 100, 4 + 40 + 4 + 6000} {
		src := &segReader{segs: [][]byte{wire[:cut], wire[cut:]}, gap: timeoutErr{}}
		r := NewRecStream(&rwPair{Reader: src}, 0)
		if !r.AtBoundary() {
			t.Fatal("fresh stream not at a boundary")
		}
		var got [][]byte
		timeouts := 0
		var dst []byte
		for len(got) < 2 {
			var err error
			dst, err = r.ReadRecord(dst)
			if err == nil {
				got = append(got, dst)
				dst = nil
				continue
			}
			var te timeoutErr
			if !errors.As(err, &te) {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if timeouts++; timeouts > 1 {
				t.Fatalf("cut %d: the gap was reported twice", cut)
			}
			if r.AtBoundary() {
				t.Fatalf("cut %d: timed out with bytes outstanding, yet AtBoundary", cut)
			}
		}
		if timeouts != 1 || !bytes.Equal(got[0], first) || !bytes.Equal(got[1], second) {
			t.Fatalf("cut %d: %d timeouts, records of %d and %d bytes", cut, timeouts, len(got[0]), len(got[1]))
		}
	}

	// A gap exactly between records is the retriable case: nothing
	// buffered, no record open.
	src := &segReader{segs: [][]byte{frame(first), frame(second)}, gap: timeoutErr{}}
	r := NewRecStream(&rwPair{Reader: src}, 0)
	if _, err := r.ReadRecord(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadRecord(nil); err == nil || !r.AtBoundary() {
		t.Fatalf("gap between records: err %v, AtBoundary %v", err, r.AtBoundary())
	}
	if got, err := r.ReadRecord(nil); err != nil || !bytes.Equal(got, second) {
		t.Fatalf("after the gap: %d bytes, err %v", len(got), err)
	}
}

// TestReadEntryPointsCompose drives ReadRecord and AtBoundary over one
// stream and one window: each read picks up exactly where the last one
// stopped, across fragments — empty non-final ones among them — with a
// window smaller than the records and the connection cut into 7-byte
// reads, and AtBoundary holds exactly where no record is open and no
// byte past the last one read has been taken off the connection; the
// stream ends with io.EOF at a boundary.
func TestReadEntryPointsCompose(t *testing.T) {
	recs := [][]byte{pattern(40, 5), pattern(24, 6), pattern(60, 7), pattern(12, 8)}
	var wire []byte
	var ends []int // the wire offset at which each record ends
	for i, p := range recs {
		if i == 1 { // an empty fragment ahead of the payload and one inside it
			wire = append(wire, fragment(nil, false)...)
			wire = append(wire, fragment(p[:8], false)...)
			wire = append(wire, fragment(nil, false)...)
			p = p[8:]
		}
		wire = append(wire, fragmented(p, 8)...)
		ends = append(ends, len(wire))
	}
	src := &chunkedReader{data: wire, chunk: 7}
	r := NewRecStream(&rwPair{Reader: src}, 8)
	if !r.AtBoundary() {
		t.Fatal("fresh stream not at a boundary")
	}
	for i, want := range recs {
		got, err := r.ReadRecord(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record %d: %x, err %v; want %x", i, got, err, want)
		}
		if taken := len(wire) - len(src.data); r.AtBoundary() != (taken == ends[i]) {
			t.Fatalf("after record %d, %d wire bytes taken, the record ending at %d: AtBoundary = %v",
				i, taken, ends[i], r.AtBoundary())
		}
	}
	if _, err := r.ReadRecord(nil); !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || !r.AtBoundary() {
		t.Fatalf("end of stream = %v (AtBoundary %v), want io.EOF at a boundary", err, r.AtBoundary())
	}
}

// TestMaxRecord: a record is refused the moment its fragments announce
// more than the bound — including a peer that never sets the
// last-fragment bit, whose record used to grow until memory ran out —
// and nothing beyond the bound is buffered.
func TestMaxRecord(t *testing.T) {
	const limit = 1000
	nonFinal := func(n int) []byte {
		return append([]byte{0, 0, byte(n >> 8), byte(n)}, make([]byte, n)...)
	}

	t.Run("endless fragments", func(t *testing.T) {
		// A reader that never runs dry: non-final 300-byte fragments for
		// as long as anyone asks.
		r := NewRecStream(&rwPair{Reader: &loopReader{frame: nonFinal(300)}}, 0)
		r.MaxRecord = limit
		got, err := r.ReadRecord(nil)
		if !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("err = %v, want ErrRecordTooLarge", err)
		}
		if len(got) > limit {
			t.Fatalf("%d bytes buffered past a %d-byte bound", len(got), limit)
		}
		if _, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("second read = %v; the refusal must stick", err)
		}
		if r.AtBoundary() {
			t.Fatal("refused mid-record, yet AtBoundary")
		}
	})
	t.Run("endless empty fragments", func(t *testing.T) {
		// Empty, never last: no payload ever counts against the bound, so
		// each one costs its own mark and the record ends all the same —
		// after limit/4 of them, and not for ever.
		src := &loopReader{frame: nonFinal(0)}
		r := NewRecStream(&rwPair{Reader: src}, 0)
		r.MaxRecord = limit
		if got, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) || len(got) != 0 {
			t.Fatalf("%d bytes, err = %v, want ErrRecordTooLarge", len(got), err)
		}
		if _, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("second read = %v; the refusal must stick", err)
		}
		if want := limit + DefaultFragmentSize; src.n > want {
			t.Fatalf("%d bytes read of a record of empty fragments bounded at %d; want at most the bound and one window", src.n, limit)
		}
	})
	t.Run("empty fragments inside the bound", func(t *testing.T) {
		// A record that does end is unaffected but for its budget: three
		// empty fragments ahead of a payload cost 12 of it.
		want := pattern(limit-12, 5)
		raw := bytes.Repeat(nonFinal(0), 3)
		raw = append(raw, frame(want)...)
		raw = append(raw, bytes.Repeat(nonFinal(0), 3)...)
		raw = append(raw, frame(pattern(limit-11, 6))...)
		r := NewRecStream(&rwPair{Reader: bytes.NewReader(raw)}, 0)
		r.MaxRecord = limit
		if got, err := r.ReadRecord(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("record at the bound: %d bytes, err %v", len(got), err)
		}
		if _, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("record one byte past it: err %v, want ErrRecordTooLarge", err)
		}
	})
	t.Run("one oversized fragment", func(t *testing.T) {
		r := NewRecStream(&rwPair{Reader: bytes.NewReader([]byte{0x80, 0, 0x03, 0xe9})}, 0) // 1001, final
		r.MaxRecord = limit
		if got, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) || len(got) != 0 {
			t.Fatalf("%d bytes, err %v", len(got), err)
		}
	})
	t.Run("at the bound", func(t *testing.T) {
		want := pattern(limit, 9)
		r := NewRecStream(&rwPair{Reader: bytes.NewReader(frame(want, want))}, 0)
		r.MaxRecord = limit
		for i := 0; i < 2; i++ { // the count restarts with each record
			if got, err := r.ReadRecord(nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("record %d: %d bytes, err %v", i, len(got), err)
			}
		}
	})
	t.Run("streaming reads too", func(t *testing.T) {
		// The bound counts across fragments however the reads fall: one
		// record of 300-byte fragments, taken 7 bytes a Read, is refused
		// at its fourth fragment.
		wire := bytes.Repeat(nonFinal(300), 4)
		r := NewRecStream(&rwPair{Reader: &chunkedReader{data: append(wire, fragment(nil, true)...), chunk: 7}}, 16)
		r.MaxRecord = limit
		if got, err := r.ReadRecord(nil); !errors.Is(err, ErrRecordTooLarge) || len(got) != 900 {
			t.Fatalf("%d bytes, err = %v, want 900 and ErrRecordTooLarge", len(got), err)
		}
	})
}

// loopReader replays frame for ever.
type loopReader struct {
	frame []byte
	off   int
	n     int // bytes handed out
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.frame[l.off:])
	l.off = (l.off + n) % len(l.frame)
	l.n += n
	return n, nil
}

// TestRecStreamLazyBuffers: a stream allocates its window on the first
// read, so a WriteRecord-only writer costs none, and the window is
// DefaultFragmentSize by default.
func TestRecStreamLazyBuffers(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 0)
	if err := w.WriteRecord(preframed([]byte("abcd"))); err != nil {
		t.Fatal(err)
	}
	if w.rbuf != nil {
		t.Fatal("WriteRecord allocated a window")
	}
	r := NewRecStream(&rwPair{Reader: &wire}, 0)
	if _, err := r.ReadRecord(nil); err != nil {
		t.Fatal(err)
	}
	if r.rbuf.Size() != DefaultFragmentSize {
		t.Fatalf("reader: window %d bytes", r.rbuf.Size())
	}
}
