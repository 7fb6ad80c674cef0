package xdr

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// RecStream is the record-marking stream of xdr_rec.c used by RPC over
// TCP: the byte stream is cut into records, each a sequence of fragments
// carrying a 4-byte big-endian header whose top bit marks the final
// fragment of the record and whose low 31 bits give the fragment length.
//
// A connection-oriented transport needs this layer because, unlike UDP,
// TCP gives no message boundaries; the record marks let one reply be
// delimited without knowing its encoded size in advance.
//
// The read side keeps xdrrec's read-ahead window: each Read on the
// connection takes whatever has arrived, up to one fragment size, and
// marks and payload are then served out of the window, so a burst of
// small records costs one kernel crossing, not two per record. Both
// buffers are allocated on first use, so a stream that is only read —
// a transport's, whose records leave through a RecBatcher — pays for
// the window alone.
type RecStream struct {
	rw       io.ReadWriter
	fragSize int

	// MaxRecord, when positive, bounds the payload of one incoming record
	// across all its fragments; a record announcing more fails with
	// ErrRecordTooLarge before the excess is read or buffered. An empty
	// fragment that is not the record's last counts as 4 bytes, so the
	// bound also ends a record made of nothing else. Set it before the
	// first read.
	MaxRecord int

	// Write (encode) state.
	wbuf []byte // pending fragment payload; fragSize bytes once written to
	wpos int    // bytes of wbuf filled
	sent int    // bytes already flushed in the current record
	werr error  // sticky write error

	// Read (decode) state.
	rbuf  *bufio.Reader // read-ahead window over rw; nil until the first read
	rfrag int           // bytes remaining in the current fragment
	rlast bool          // current fragment is the record's last
	rcons int           // bytes consumed of the current record, plus 4 per empty non-final fragment
	rinit bool          // a fragment header has been read for this record
	rlong [BytesPerUnit]byte
}

var _ Stream = (*RecStream)(nil)

// DefaultFragmentSize is the payload capacity of one outgoing fragment
// and the size of the read-ahead window, matching the 4000-byte
// sendsize/recvsize default of clnttcp_create.
const DefaultFragmentSize = 4000

const lastFragFlag = uint32(1) << 31

// NewRecStream returns a record-marking stream over rw. fragSize bounds
// each outgoing fragment payload and sizes the read-ahead window (which
// is never smaller than bufio's 16-byte minimum); 0 selects
// DefaultFragmentSize.
func NewRecStream(rw io.ReadWriter, fragSize int) *RecStream {
	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	return &RecStream{rw: rw, fragSize: fragSize}
}

// PutLong appends a big-endian 4-byte integer to the current record.
func (r *RecStream) PutLong(v int32) error {
	var b [BytesPerUnit]byte
	u := uint32(v)
	b[0], b[1], b[2], b[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
	return r.PutBytes(b[:])
}

// PutBytes appends raw bytes to the current record, flushing intermediate
// (non-final) fragments whenever the fragment buffer fills.
func (r *RecStream) PutBytes(p []byte) error {
	if r.werr != nil {
		return r.werr
	}
	if r.wbuf == nil {
		r.wbuf = make([]byte, r.fragSize)
	}
	for len(p) > 0 {
		n := copy(r.wbuf[r.wpos:], p)
		r.wpos += n
		p = p[n:]
		if r.wpos == len(r.wbuf) {
			if err := r.flushFragment(false); err != nil {
				return err
			}
		}
	}
	return nil
}

// EndRecord completes the current record, flushing the pending data as the
// final fragment (the xdrrec_endofrecord "sendnow" path). An empty record
// still emits one empty final fragment so the peer sees a boundary.
func (r *RecStream) EndRecord() error {
	if r.werr != nil {
		return r.werr
	}
	if err := r.flushFragment(true); err != nil {
		return err
	}
	r.sent = 0
	return nil
}

// RecordMarkLen is the size of the record-marking header. Callers of
// WriteRecord reserve this many bytes at the head of their message
// buffer for the mark to be patched into.
const RecordMarkLen = BytesPerUnit

// putMark writes a fragment's record mark into m.
func putMark(m []byte, payload int, last bool) {
	u := uint32(payload)
	if last {
		u |= lastFragFlag
	}
	m[0], m[1], m[2], m[3] = byte(u>>24), byte(u>>16), byte(u>>8), byte(u)
}

// maxFragPayload is the largest payload one fragment can carry: the low
// 31 bits of the record mark.
const maxFragPayload = int(^lastFragFlag)

// WriteRecord frames buf as one complete record and writes it with a
// single Write call. buf's first RecordMarkLen bytes are reserved for
// the record mark — the caller marshals the message immediately after
// them — so the message reaches the socket without ever being copied
// into the fragment buffer, and the mark plus payload leave in one
// syscall instead of two-per-fragment. The record content is identical
// to PutBytes+EndRecord on the same payload (byte-identical on the wire
// for payloads within one fragment, which covers every datagram-sized
// message; larger payloads ride in one big final fragment instead of
// 4000-byte slices — both framings every RFC 1057 peer must accept).
//
// Data already buffered by PutBytes, or a payload too large for a
// single fragment, completes through the generic fragmenting path, so
// the two write APIs compose on one stream.
func (r *RecStream) WriteRecord(buf []byte) error {
	if r.werr != nil {
		return r.werr
	}
	if len(buf) < RecordMarkLen {
		return fmt.Errorf("xdr: WriteRecord: buffer shorter than the %d-byte record mark", RecordMarkLen)
	}
	payload := len(buf) - RecordMarkLen
	// An open record — pending bytes in the fragment buffer OR fragments
	// already flushed (r.sent) — must complete through the fragmenting
	// path: the single-write fast path would inject this record's mark
	// into the middle of the open record and corrupt the stream framing.
	if r.wpos != 0 || r.sent != 0 || payload > maxFragPayload {
		if err := r.PutBytes(buf[RecordMarkLen:]); err != nil {
			return err
		}
		return r.EndRecord()
	}
	putMark(buf, payload, true)
	if _, err := r.rw.Write(buf); err != nil {
		r.werr = fmt.Errorf("xdr: write record: %w", err)
		return r.werr
	}
	r.sent = 0
	return nil
}

func (r *RecStream) flushFragment(last bool) error {
	var h [RecordMarkLen]byte
	putMark(h[:], r.wpos, last)
	if _, err := r.rw.Write(h[:]); err != nil {
		r.werr = fmt.Errorf("xdr: write fragment header: %w", err)
		return r.werr
	}
	if r.wpos > 0 {
		if _, err := r.rw.Write(r.wbuf[:r.wpos]); err != nil {
			r.werr = fmt.Errorf("xdr: write fragment payload: %w", err)
			return r.werr
		}
	}
	r.sent += r.wpos
	r.wpos = 0
	return nil
}

// GetLong consumes a big-endian 4-byte integer from the current record.
func (r *RecStream) GetLong(v *int32) error {
	// Stream scratch, not a local: the bytes may be handed to the
	// connection's Read, which would move a local to the heap per call.
	b := r.rlong[:]
	if err := r.GetBytes(b); err != nil {
		return err
	}
	*v = int32(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
	return nil
}

// GetBytes consumes len(p) bytes from the current record, crossing
// fragment boundaries transparently. Reading past the final fragment of
// the record yields ErrOverflow, as exhausting the record did in C.
func (r *RecStream) GetBytes(p []byte) error {
	for len(p) > 0 {
		if r.rfrag == 0 {
			if r.rinit && r.rlast {
				return ErrOverflow
			}
			if err := r.nextFragment(); err != nil {
				return err
			}
			continue
		}
		n := min(len(p), r.rfrag)
		if _, err := r.readPayload(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// reader returns the read-ahead window (xdrrec's fill_input_buf, here a
// bufio.Reader of one fragment size), allocating it on the first read.
// Each Read on the connection takes whatever has arrived, up to the
// window's free space; a payload remainder at least a window long
// bypasses it and lands in the caller's buffer, so a large record gains
// no second copy (bufio's large-read path; TestReadAheadReadCounts pins
// it). A failed read loses nothing already buffered, so a timed out one
// can be retried.
func (r *RecStream) reader() *bufio.Reader {
	if r.rbuf == nil {
		r.rbuf = bufio.NewReaderSize(r.rw, r.fragSize)
	}
	return r.rbuf
}

// AtBoundary reports whether the reader sits exactly between records:
// no record open and nothing read ahead. It is what tells a read that
// timed out on a quiet connection (retriable, or reapable as idle) from
// one that timed out inside a record or with part of the next one
// already taken off the wire — a stalled stream, which cannot be
// resumed by a caller that has given up on the record.
func (r *RecStream) AtBoundary() bool {
	return !r.rinit && (r.rbuf == nil || r.rbuf.Buffered() == 0)
}

// readErr wraps a failed read of the connection. The end of the stream
// is io.EOF only exactly between records; anywhere else it cut one short.
func (r *RecStream) readErr(what string, err error) error {
	if err == io.EOF && !r.AtBoundary() {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("xdr: %s: %w", what, err)
}

// ErrRecordTooLarge reports an incoming record whose fragments add up to
// more than the stream's MaxRecord.
var ErrRecordTooLarge = errors.New("xdr: record exceeds the stream's size limit")

// DefaultMaxRecord is the MaxRecord both transport endpoints put on the
// streams they read unless told otherwise: far above any message the
// stubs produce, and small enough that a peer cannot pin more than this
// per connection by never finishing a record.
const DefaultMaxRecord = 16 << 20

// nextFragment parses the next fragment mark out of the window. The
// mark is peeked and only then consumed, so a read that fails halfway
// through it loses nothing.
func (r *RecStream) nextFragment() error {
	h, err := r.reader().Peek(RecordMarkLen)
	if err != nil {
		return r.readErr("read fragment header", err)
	}
	u := uint32(h[0])<<24 | uint32(h[1])<<16 | uint32(h[2])<<8 | uint32(h[3])
	frag, last := int(u&^lastFragFlag), u&lastFragFlag != 0
	// A fragment costs the record's budget its payload, as that is read.
	// One that is empty and does not end the record carries nothing and
	// promises more, so it costs its own mark, here: a peer sending those
	// for ever reaches the cap like any other that never finishes a record.
	empty := frag == 0 && !last
	cost := frag
	if empty {
		cost = RecordMarkLen
	}
	if r.MaxRecord > 0 && cost > r.MaxRecord-r.rcons {
		// Left unconsumed: the stream is over, and every further read
		// reports the same thing.
		return fmt.Errorf("%w (%d bytes)", ErrRecordTooLarge, r.MaxRecord)
	}
	_, _ = r.rbuf.Discard(RecordMarkLen) // peeked: cannot fail
	if empty {
		r.rcons += cost
	}
	r.rlast = last
	r.rfrag = frag
	r.rinit = true
	return nil
}

// readPayload moves the next len(p) bytes of the current fragment (the
// caller bounds p by r.rfrag) into p and reports how many arrived before
// any error.
func (r *RecStream) readPayload(p []byte) (int, error) {
	n, err := io.ReadFull(r.rbuf, p)
	r.rfrag -= n
	r.rcons += n
	if err != nil {
		return n, r.readErr("read record payload", err)
	}
	return n, nil
}

// endRecord arms the reader for the next record.
func (r *RecStream) endRecord() {
	r.rinit = false
	r.rlast = false
	r.rcons = 0
}

// maxFragStep bounds how much ReadRecord grows its buffer ahead of the
// bytes actually arriving: a fragment header is attacker-controlled, so
// trusting its length for one big allocation would let a single bogus
// record claim up to 2 GiB before the read fails. Growing in bounded
// steps keeps memory proportional to data received.
const maxFragStep = 1 << 20

// ReadRecord appends one complete record to dst and returns the extended
// slice: the efficient way for a transport to slurp a whole message
// before dispatching. Records already in the read-ahead window are
// returned without touching the connection. On error dst carries the
// bytes of the record that did arrive.
func (r *RecStream) ReadRecord(dst []byte) ([]byte, error) {
	for {
		for r.rfrag > 0 {
			start := len(dst)
			dst = append(dst, make([]byte, min(r.rfrag, maxFragStep))...)
			if n, err := r.readPayload(dst[start:]); err != nil {
				return dst[:start+n], err
			}
		}
		if r.rinit && r.rlast {
			r.endRecord()
			return dst, nil
		}
		if err := r.nextFragment(); err != nil {
			return dst, err
		}
	}
}

// SkipRecord discards the rest of the current record and arms the reader
// for the next one (xdrrec_skiprecord).
func (r *RecStream) SkipRecord() error {
	for {
		if r.rfrag > 0 {
			n, err := r.rbuf.Discard(r.rfrag)
			r.rfrag -= n
			r.rcons += n
			if err != nil {
				return r.readErr("skip record", err)
			}
		}
		if r.rinit && r.rlast {
			break
		}
		if err := r.nextFragment(); err != nil {
			return err
		}
	}
	r.endRecord()
	return nil
}

// Pos reports bytes consumed (decode) or buffered+sent (encode) within the
// current record.
func (r *RecStream) Pos() int {
	if r.rinit {
		return r.rcons
	}
	return r.sent + r.wpos
}

// SetPos is not supported on record streams, exactly as in xdr_rec.c.
func (r *RecStream) SetPos(int) error { return ErrBadPos }
