// Package xdr implements the Sun XDR (eXternal Data Representation,
// RFC 1014/4506) encoding layer exactly as the 1984 Sun RPC code structures
// it: a generic, micro-layered runtime in which every primitive dispatches
// on the operation mode of an XDR handle and every buffer access re-checks
// the remaining space.
//
// The deliberate genericity of this package is the point: it is the
// "original Sun RPC" baseline of Muller et al. (INRIA RR-3220). Each
// call such as
//
//	x.Long(&v)   // xdr_long(xdrs, lp)
//
// performs the same interpretive work as the paper's Figure 2: a dispatch
// on x.Op, an indirect call through the stream ops, an overflow check
// against the stream's remaining-byte counter, and a byte-order
// conversion. The specialized counterparts produced by internal/tempo
// remove all of that, leaving only the data movement.
//
// In the five-layer specialization stack (see DESIGN.md) this is layer
// 1, the encoding layer: the primitive codecs, the XDR streams over
// memory (MemStream, which every decode reads, and BufStream), the
// record-marking layer of a stream transport (RecStream, which reads
// whole records into memory and writes one at a time, and RecBatcher,
// its group-commit record writer), and the shared buffer pool
// everything above allocates from. internal/rpcmsg (messages),
// internal/wire (compiled stubs), and the transports in internal/client
// and internal/server all bottom out here.
package xdr

import "errors"

// Op selects what an XDR handle does when a marshaling routine runs:
// serialize, deserialize, or release memory. It mirrors the xdr_op enum
// (XDR_ENCODE / XDR_DECODE / XDR_FREE) the paper's Figure 2 dispatches on.
type Op int

// Operation modes. They start at 1 so the zero value of Op is invalid and
// misuse is caught by the ErrBadOp paths rather than silently decoding.
const (
	Encode Op = iota + 1
	Decode
	Free
)

// String returns the Sun-style name of the operation.
func (op Op) String() string {
	switch op {
	case Encode:
		return "XDR_ENCODE"
	case Decode:
		return "XDR_DECODE"
	case Free:
		return "XDR_FREE"
	default:
		return "XDR_INVALID"
	}
}

// Errors reported by the XDR layer.
var (
	// ErrOverflow reports that a stream ran out of space while encoding
	// or out of data while decoding. It is the failure detected by the
	// x_handy check in xdrmem_putlong (paper Figure 3).
	ErrOverflow = errors.New("xdr: buffer overflow")
	// ErrBadOp reports an operation the handle's mode does not support,
	// the fall-through `return FALSE` of the paper's Figure 2.
	ErrBadOp = errors.New("xdr: invalid operation for mode")
	// ErrTooBig reports a counted quantity exceeding its declared bound.
	ErrTooBig = errors.New("xdr: size exceeds declared maximum")
	// ErrBadUnion reports an unknown discriminant while (de)coding a union.
	ErrBadUnion = errors.New("xdr: unknown union discriminant")
	// ErrBadPos reports an out-of-range SetPos.
	ErrBadPos = errors.New("xdr: position out of range")
	// ErrCycle reports a linked list whose links lead back into it: its
	// encoding would never end.
	ErrCycle = errors.New("xdr: linked list loops back on itself")
)

// Stream is the x_ops function table of a Sun XDR handle: the micro-layer
// that moves 4-byte units and opaque bytes in or out of some medium
// (a memory buffer, a growable one, ...). All counted quantities on the wire
// are big-endian, 4-byte aligned.
type Stream interface {
	// PutLong appends one big-endian 4-byte integer (xdrmem_putlong).
	PutLong(v int32) error
	// GetLong consumes one big-endian 4-byte integer (xdrmem_getlong).
	GetLong(v *int32) error
	// PutBytes appends len(p) raw bytes without padding.
	PutBytes(p []byte) error
	// GetBytes consumes len(p) raw bytes without padding.
	GetBytes(p []byte) error
	// Pos reports the current byte offset within the stream (XDR_GETPOS).
	Pos() int
	// SetPos repositions the stream (XDR_SETPOS); not all streams allow it.
	SetPos(pos int) error
}

// XDR is the operation handle threaded through every marshaling routine,
// the Go rendering of the C `XDR` struct: an operation mode plus the
// stream ops table. Marshaling routines written against XDR work
// unchanged for encoding, decoding, and freeing — which is exactly the
// genericity the paper's specializer later removes.
type XDR struct {
	// Op is the mode every primitive dispatches on.
	Op Op
	// Stream is the underlying byte-moving micro-layer.
	Stream Stream
}

// NewEncoder returns a handle that serializes into s.
func NewEncoder(s Stream) *XDR { return &XDR{Op: Encode, Stream: s} }

// NewDecoder returns a handle that deserializes from s.
func NewDecoder(s Stream) *XDR { return &XDR{Op: Decode, Stream: s} }

// NewFreer returns a handle in XDR_FREE mode. Go is garbage collected, so
// freeing only resets pointer fields; the mode exists for fidelity with
// the three-way dispatch in the original code and for stubs that must
// run under all modes.
func NewFreer() *XDR { return &XDR{Op: Free, Stream: nil} }

// Pos reports the stream position, or 0 for a Free handle.
func (x *XDR) Pos() int {
	if x.Stream == nil {
		return 0
	}
	return x.Stream.Pos()
}

// A Proc marshals one value against a handle; it is the signature of every
// xdr_* routine (xdrproc_t). The value is always passed by pointer so the
// same routine encodes, decodes, and frees.
type Proc[T any] func(x *XDR, v *T) error

// BytesPerUnit is the XDR basic block size: every primitive occupies a
// multiple of 4 bytes on the wire.
const BytesPerUnit = 4

// Pad returns how many zero bytes follow n content bytes to reach 4-byte
// alignment.
func Pad(n int) int { return (BytesPerUnit - n%BytesPerUnit) % BytesPerUnit }

var zeroPad [BytesPerUnit]byte
