package xdr

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// chunkedReader returns data in fixed-size chunks to exercise short reads.
type chunkedReader struct {
	data  []byte
	chunk int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(c.data) {
		n = len(c.data)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

type rwPair struct {
	io.Reader
	io.Writer
}

// TestRecStreamRoundTrip: a record is decoded from memory. The stream
// moves whole records and is no XDR stream itself; a MemStream over the
// record ReadRecord returns is.
func TestRecStreamRoundTrip(t *testing.T) {
	if _, ok := any(NewRecStream(&rwPair{}, 0)).(Stream); ok {
		t.Fatal("RecStream is an XDR stream again")
	}
	bs := NewBufEncode(nil)
	enc := NewEncoder(bs)
	for i := int32(0); i < 20; i++ {
		v := i * 3
		if err := enc.Long(&v); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	var wire bytes.Buffer
	if err := NewRecStream(&rwPair{Writer: &wire}, 16).WriteRecord(preframed(bs.Buffer())); err != nil {
		t.Fatal(err)
	}

	rec, err := NewRecStream(&rwPair{Reader: &wire}, 16).ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(NewMemDecode(rec))
	for i := int32(0); i < 20; i++ {
		var v int32
		if err := dec.Long(&v); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if v != i*3 {
			t.Fatalf("element %d = %d, want %d", i, v, i*3)
		}
	}
	// The record is exhausted: one more read overflows.
	var v int32
	if err := dec.Long(&v); !errors.Is(err, ErrOverflow) {
		t.Fatalf("past-end err = %v, want ErrOverflow", err)
	}
}

// TestRecStreamFragmentation: a record of 100 bytes in 16-byte fragments
// reassembles byte for byte however the transport cuts the reads.
func TestRecStreamFragmentation(t *testing.T) {
	payload := pattern(100, 0)
	wire := fragmented(payload, 16)
	if want := 100 + 7*4; len(wire) != want { // payload + 7 fragment marks
		t.Fatalf("wire bytes = %d, want %d", len(wire), want)
	}
	f := func(chunk uint8) bool {
		c := int(chunk%13) + 1
		r := NewRecStream(&rwPair{Reader: &chunkedReader{data: wire, chunk: c}}, 16)
		got, err := r.ReadRecord(nil)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecStreamMultipleRecords: records of several fragments each, back
// to back, read back one by one, each read stopping at its record's end.
func TestRecStreamMultipleRecords(t *testing.T) {
	var wire []byte
	for rec := 0; rec < 3; rec++ {
		wire = append(wire, fragmented(pattern(20, byte(rec)), 8)...)
	}
	r := NewRecStream(&rwPair{Reader: bytes.NewReader(wire)}, 8)
	for rec := 0; rec < 3; rec++ {
		if got, err := r.ReadRecord(nil); err != nil || !bytes.Equal(got, pattern(20, byte(rec))) {
			t.Fatalf("record %d: %x, err %v", rec, got, err)
		}
	}
}

// TestRecStreamEmptyRecord: an empty record is one empty final fragment
// on the wire, and reads back as an empty record.
func TestRecStreamEmptyRecord(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 8)
	if err := w.WriteRecord(preframed(nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.Bytes(), fragment(nil, true)) {
		t.Fatalf("empty record wire = %x, want %x", wire.Bytes(), fragment(nil, true))
	}
	r := NewRecStream(&rwPair{Reader: &wire}, 8)
	if got, err := r.ReadRecord(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty record read back as %x, err %v", got, err)
	}
}

func TestRecStreamHeaderBits(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&rwPair{Writer: &wire}, 64)
	if err := w.WriteRecord(preframed([]byte{0, 0, 0, 7})); err != nil {
		t.Fatal(err)
	}
	h := wire.Bytes()[:4]
	if h[0]&0x80 == 0 {
		t.Fatal("last-fragment bit not set on final fragment")
	}
	length := uint32(h[0]&0x7f)<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	if length != 4 {
		t.Fatalf("fragment length = %d, want 4", length)
	}
}

// TestRecStreamWriteError: a failed write reports the connection's own
// error underneath the stream's.
func TestRecStreamWriteError(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: &failingWriter{errBrokenPipe}}, 8)
	if err := w.WriteRecord(preframed([]byte("x"))); !errors.Is(err, errBrokenPipe) {
		t.Fatalf("err = %v, want it to wrap %v", err, errBrokenPipe)
	}
}

var errBrokenPipe = errors.New("broken pipe")

func TestReadRecordBulk(t *testing.T) {
	payload := pattern(100, 0)
	wire := append(fragmented(payload, 16), frame([]byte("next"))...) // ReadRecord stops at the boundary
	r := NewRecStream(&rwPair{Reader: bytes.NewReader(wire)}, 16)
	got, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("record 1 = %v", got)
	}
	got, err = r.ReadRecord(got[:0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "next" {
		t.Fatalf("record 2 = %q", got)
	}
}

func TestReadRecordAppends(t *testing.T) {
	r := NewRecStream(&rwPair{Reader: bytes.NewReader(frame([]byte{0, 0, 0, 7}))}, 8)
	prefix := []byte{0xaa, 0xbb}
	got, err := r.ReadRecord(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != 0xaa || got[5] != 7 {
		t.Fatalf("appended record = %v", got)
	}
}

// preframed builds a WriteRecord buffer: the reserved mark hole followed
// by payload.
func preframed(payload []byte) []byte {
	return append(make([]byte, RecordMarkLen), payload...)
}

func TestWriteRecordRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecStream(&wire, 0)
	payload := []byte("one-syscall record framing")
	if err := w.WriteRecord(preframed(payload)); err != nil {
		t.Fatal(err)
	}
	r := NewRecStream(&wire, 0)
	rec, err := r.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, payload) {
		t.Fatalf("got %q, want %q", rec, payload)
	}
}

// TestWriteRecordMatchesStreamingPath: WriteRecord and a RecBatcher —
// the write path of a transport's stream — put the same bytes on the
// wire for the same record, one final fragment framed as RFC 5531 has
// it, so old and new peers interoperate.
func TestWriteRecordMatchesStreamingPath(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 100, DefaultFragmentSize - 1, DefaultFragmentSize, 3 * DefaultFragmentSize} {
		payload := pattern(n, 7)
		var single, batched bytes.Buffer
		if err := NewRecStream(&rwPair{Writer: &single}, 0).WriteRecord(preframed(payload)); err != nil {
			t.Fatal(err)
		}
		if err := NewRecBatcher(&batched).Write(pooled(payload)); err != nil {
			t.Fatal(err)
		}
		if want := fragment(payload, true); !bytes.Equal(single.Bytes(), want) || !bytes.Equal(batched.Bytes(), want) {
			t.Fatalf("n=%d: wire bytes diverged:\n WriteRecord %x\n RecBatcher  %x\n by hand     %x", n, single.Bytes(), batched.Bytes(), want)
		}
	}
}

// TestWriteRecordSingleWrite asserts the copy-free property observable
// from outside: the mark and payload arrive in exactly one Write call,
// whatever the window.
func TestWriteRecordSingleWrite(t *testing.T) {
	var cw countingWriter
	w := NewRecStream(&rwPair{Writer: &cw}, 16)
	payload := make([]byte, 3*DefaultFragmentSize)
	if err := w.WriteRecord(preframed(payload)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("WriteRecord issued %d writes, want 1", cw.writes)
	}
	if cw.bytes != RecordMarkLen+len(payload) {
		t.Fatalf("wrote %d bytes, want %d", cw.bytes, RecordMarkLen+len(payload))
	}
}

type countingWriter struct {
	writes int
	bytes  int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

func TestWriteRecordTooShort(t *testing.T) {
	w := NewRecStream(&rwPair{Writer: io.Discard}, 0)
	if err := w.WriteRecord([]byte{1, 2}); err == nil {
		t.Fatal("accepted a buffer shorter than the record mark")
	}
}

// TestWriteRecordStickyError: after a failed write no later record is
// written — its mark could land inside the one cut short.
func TestWriteRecordStickyError(t *testing.T) {
	writes := 0
	w := NewRecStream(&rwPair{Writer: writerFunc(func([]byte) (int, error) {
		writes++
		return 0, errBrokenPipe
	})}, 0)
	if err := w.WriteRecord(preframed([]byte("x"))); err == nil {
		t.Fatal("expected write error")
	}
	if err := w.WriteRecord(preframed([]byte("y"))); err == nil || writes != 1 {
		t.Fatalf("second record: err %v after %d writes; want the sticky error and no second write", err, writes)
	}
}
