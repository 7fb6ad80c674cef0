package xdr

import "sync"

// DefaultPoolBuf is the capacity of freshly minted pool buffers. It covers
// a default-size datagram (8900 bytes) plus record headers without growth,
// so between two garbage collections a busy transport allocates nothing
// per call for its buffers. Each collection empties the pools, and the
// calls after it make buffers, per-P pool slots and argument values
// afresh: the repository benchmark's
// tcp_echo2000 workload reads 2.044 allocations a call, 0.044 above the
// two of the client stub's result (go1.24, 2 vCPUs, GOGC=100).
const DefaultPoolBuf = 9 << 10

// bufPool recycles marshaling and reply buffers across concurrent calls.
// The multiplexed transports borrow one buffer per in-flight call instead
// of owning a single buffer behind a mutex, so pooling is what keeps the
// concurrent hot path allocation-free between collections.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultPoolBuf)
		return &b
	},
}

// GetBuf borrows a zero-length buffer with capacity at least n from the
// shared pool. Callers may reslice it up to cap and may grow it with
// append; hand it back with PutBuf (including any growth) when the bytes
// are no longer referenced.
func GetBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// maxPoolBuf is the largest capacity PutBuf keeps. Buffers grown past it
// (a huge TCP record, say) are dropped for the GC instead of circulating
// forever in the pool serving ordinary datagram-sized calls.
const maxPoolBuf = 64 << 10

// PutBuf returns a buffer borrowed with GetBuf to the pool. The caller
// must not retain *bp afterwards.
func PutBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPoolBuf {
		return
	}
	bufPool.Put(bp)
}

// PooledEnc couples a growable BufStream with its encode handle so the
// per-call stream+handle pair is recycled instead of allocated: the XDR
// handle escapes into the marshal closures it is passed to, so without
// pooling every call pays two heap objects before a single byte moves.
type PooledEnc struct {
	BS BufStream
	X  XDR
}

var encPool = sync.Pool{New: func() any { return new(PooledEnc) }}

// GetEnc borrows an encode handle appending after backing's existing
// contents. Capture BS.Buffer() before handing it back with PutEnc.
func GetEnc(backing []byte) *PooledEnc {
	e := encPool.Get().(*PooledEnc)
	e.BS.SetBuffer(backing)
	e.X = XDR{Op: Encode, Stream: &e.BS}
	return e
}

// PutEnc returns an encode handle to the pool. The caller must not use
// e — or any stream window obtained from it — afterwards.
func PutEnc(e *PooledEnc) {
	e.BS.SetBuffer(nil)
	encPool.Put(e)
}

// PooledDec is the decode-side counterpart of PooledEnc: a MemStream
// plus its decode handle, recycled across calls.
type PooledDec struct {
	MS MemStream
	X  XDR
}

var decPool = sync.Pool{New: func() any { return new(PooledDec) }}

// GetDec borrows a decode handle over buf.
func GetDec(buf []byte) *PooledDec {
	d := decPool.Get().(*PooledDec)
	d.MS.SetBuffer(buf)
	d.X = XDR{Op: Decode, Stream: &d.MS}
	return d
}

// PutDec returns a decode handle to the pool. The caller must not use
// d afterwards and must not retain windows into the decoded buffer.
func PutDec(d *PooledDec) {
	d.MS.SetBuffer(nil)
	decPool.Put(d)
}
