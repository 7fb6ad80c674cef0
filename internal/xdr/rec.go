package xdr

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// RecStream is the record-marking layer of xdr_rec.c used by RPC over
// TCP (RFC 5531 §11): the byte stream is cut into records, each a
// sequence of fragments carrying a 4-byte big-endian header whose top
// bit marks the final fragment of the record and whose low 31 bits give
// the fragment length.
//
// A connection-oriented transport needs this layer because, unlike UDP,
// TCP gives no message boundaries; the record marks let one reply be
// delimited without knowing its encoded size in advance.
//
// It is a record reader and a one-record writer, not an XDR stream:
// ReadRecord takes a whole record into memory, where a MemStream or a
// compiled decoder reads it at fixed offsets, and WriteRecord writes one
// complete record with one Write. A transport's records leave through a
// RecBatcher, which frames them the same way.
//
// The read side keeps xdrrec's read-ahead window: each Read on the
// connection takes whatever has arrived, up to the window's size, and
// marks and payload are then served out of the window, so a burst of
// small records costs one kernel crossing, not two per record. The
// window is allocated on the first read, so a stream that is only
// written to costs none.
type RecStream struct {
	rw     io.ReadWriter
	window int

	// MaxRecord, when positive, bounds the payload of one incoming record
	// across all its fragments; a record announcing more fails with
	// ErrRecordTooLarge before the excess is read or buffered. An empty
	// fragment that is not the record's last counts as 4 bytes, so the
	// bound also ends a record made of nothing else. Set it before the
	// first read.
	MaxRecord int

	werr error // sticky write error

	// Read state.
	rbuf  *bufio.Reader // read-ahead window over rw; nil until the first read
	rfrag int           // bytes remaining in the current fragment
	rlast bool          // current fragment is the record's last
	rcons int           // bytes consumed of the current record, plus 4 per empty non-final fragment
	rinit bool          // a fragment header has been read for this record
}

// DefaultFragmentSize is the size of the read-ahead window, matching the
// 4000-byte recvsize default of clnttcp_create.
const DefaultFragmentSize = 4000

const lastFragFlag = uint32(1) << 31

// NewRecStream returns a record-marking stream over rw. fragSize sizes
// the read-ahead window (which is never smaller than bufio's 16-byte
// minimum); 0 selects DefaultFragmentSize. It has no say in how records
// are written: each leaves whole.
func NewRecStream(rw io.ReadWriter, fragSize int) *RecStream {
	if fragSize <= 0 {
		fragSize = DefaultFragmentSize
	}
	return &RecStream{rw: rw, window: fragSize}
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

// WriteRecord writes buf as one complete record with a single Write
// call. buf's first RecordMarkLen bytes are reserved for the record mark
// — the caller marshals the message immediately after them — so the
// message reaches the connection without being copied, and the mark and
// payload leave in one syscall. The record is framed as a RecBatcher
// frames it (appendFramed): one final fragment, or, past the 2 GiB a
// mark can count, several, each written in turn.
func (r *RecStream) WriteRecord(buf []byte) error {
	if r.werr != nil {
		return r.werr
	}
	if len(buf) < RecordMarkLen {
		return fmt.Errorf("xdr: WriteRecord: buffer shorter than the %d-byte record mark", RecordMarkLen)
	}
	var one [1][]byte // room for the one fragment of every record a mark can count
	for _, frag := range appendFramed(one[:0], buf, maxFragPayload) {
		if _, err := r.rw.Write(frag); err != nil {
			r.werr = fmt.Errorf("xdr: write record: %w", err)
			return r.werr
		}
	}
	return nil
}

// reader returns the read-ahead window (xdrrec's fill_input_buf, here a
// bufio.Reader), allocating it on the first read. Each Read on the
// connection takes whatever has arrived, up to the window's free space; a payload remainder at least a window long
// bypasses it and lands in the caller's buffer, so a large record gains
// no second copy (bufio's large-read path; TestReadAheadReadCounts pins
// it). A failed read loses nothing already buffered, so a timed out one
// can be retried.
func (r *RecStream) reader() *bufio.Reader {
	if r.rbuf == nil {
		r.rbuf = bufio.NewReaderSize(r.rw, r.window)
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
			n, err := io.ReadFull(r.rbuf, dst[start:])
			r.rfrag -= n
			r.rcons += n
			if err != nil {
				return dst[:start+n], r.readErr("read record payload", err)
			}
		}
		if r.rinit && r.rlast {
			r.rinit, r.rcons = false, 0 // armed for the next record
			return dst, nil
		}
		if err := r.nextFragment(); err != nil {
			return dst, err
		}
	}
}
