package wire

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// This file holds the residual loop of a unit run: what is left of
// marshaling an array once specialization has removed the dispatch, the
// per-unit overflow check and the per-unit call — n big-endian units of
// one width moved between Go memory and a wire window the caller has
// already sized. There is one pair of kernels per unit width, and
// everything that moves a run goes through them: the plan executors
// (putRun/getRun, and through them opSliceRun, the fused prefix and
// encodeFixed) and the rpcgen-emitted routines, which print a call to
// the exported generic form wherever an array has a scalar unit element.
// So on runs the engines share their bytes by construction.
//
// The loop works at word width: two 4-byte units travel as one 64-bit
// value, four words per iteration, a per-unit tail, one bounds proof up
// front. It assumes nothing about the host. The wire side goes through
// encoding/binary (a byte-swapping store where the target has one, byte
// stores where it has no unaligned access); the memory side composes a
// word from two element reads as uint64(s[0]) | uint64(s[1])<<32 and
// rotates it, an expression that is correct by value on either byte
// order and that the compiler folds into a single 64-bit load on a
// little-endian target that allows unaligned access — a big-endian or
// strict-alignment target keeps the two aligned 4-byte accesses. No
// element is ever addressed through a wider pointer.

// PutUnits32 stores s into w as len(s) big-endian 4-byte XDR units
// (int, unsigned, float, enum). w must hold 4*len(s) bytes; bytes past
// them are not touched.
func PutUnits32[T ~int32 | ~uint32 | ~float32](w []byte, s []T) {
	putUnits32(w, unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s)))
}

// GetUnits32 loads len(s) big-endian 4-byte XDR units from the front of
// b into s. b must hold 4*len(s) bytes.
func GetUnits32[T ~int32 | ~uint32 | ~float32](s []T, b []byte) {
	getUnits32(unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), len(s)), b)
}

// PutUnits64 stores s into w as len(s) big-endian 8-byte XDR units
// (hyper, unsigned hyper, double). w must hold 8*len(s) bytes.
func PutUnits64[T ~int64 | ~uint64 | ~float64](w []byte, s []T) {
	putUnits64(w, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s)))
}

// GetUnits64 loads len(s) big-endian 8-byte XDR units from the front of
// b into s. b must hold 8*len(s) bytes.
func GetUnits64[T ~int64 | ~uint64 | ~float64](s []T, b []byte) {
	getUnits64(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s)), b)
}

// pair is the wire word of two adjacent units: a in the high half. The
// operand of the rotate is the units' little-endian memory image, which
// is what lets the two reads become one load there.
func pair(a, b uint32) uint64 { return bits.RotateLeft64(uint64(a)|uint64(b)<<32, 32) }

// unpair splits a wire word into its two units, high half first; the
// mirror of pair, so that the two writes become one store.
func unpair(x uint64) (a, b uint32) {
	x = bits.RotateLeft64(x, 32)
	return uint32(x), uint32(x >> 32)
}

//specrpc:hotpath
func putUnits32(w []byte, s []uint32) {
	w = w[:4*len(s)]
	for len(s) >= 8 && len(w) >= 32 {
		binary.BigEndian.PutUint64(w, pair(s[0], s[1]))
		binary.BigEndian.PutUint64(w[8:], pair(s[2], s[3]))
		binary.BigEndian.PutUint64(w[16:], pair(s[4], s[5]))
		binary.BigEndian.PutUint64(w[24:], pair(s[6], s[7]))
		s, w = s[8:], w[32:]
	}
	for i, u := range s {
		binary.BigEndian.PutUint32(w[4*i:], u)
	}
}

//specrpc:hotpath
func getUnits32(s []uint32, b []byte) {
	b = b[:4*len(s)]
	for len(s) >= 8 && len(b) >= 32 {
		s[0], s[1] = unpair(binary.BigEndian.Uint64(b))
		s[2], s[3] = unpair(binary.BigEndian.Uint64(b[8:]))
		s[4], s[5] = unpair(binary.BigEndian.Uint64(b[16:]))
		s[6], s[7] = unpair(binary.BigEndian.Uint64(b[24:]))
		s, b = s[8:], b[32:]
	}
	for i := range s {
		s[i] = binary.BigEndian.Uint32(b[4*i:])
	}
}

//specrpc:hotpath
func putUnits64(w []byte, s []uint64) {
	w = w[:8*len(s)]
	for len(s) >= 4 && len(w) >= 32 {
		binary.BigEndian.PutUint64(w, s[0])
		binary.BigEndian.PutUint64(w[8:], s[1])
		binary.BigEndian.PutUint64(w[16:], s[2])
		binary.BigEndian.PutUint64(w[24:], s[3])
		s, w = s[4:], w[32:]
	}
	for i, u := range s {
		binary.BigEndian.PutUint64(w[8*i:], u)
	}
}

//specrpc:hotpath
func getUnits64(s []uint64, b []byte) {
	b = b[:8*len(s)]
	for len(s) >= 4 && len(b) >= 32 {
		s[0] = binary.BigEndian.Uint64(b)
		s[1] = binary.BigEndian.Uint64(b[8:])
		s[2] = binary.BigEndian.Uint64(b[16:])
		s[3] = binary.BigEndian.Uint64(b[24:])
		s, b = s[4:], b[32:]
	}
	for i := range s {
		s[i] = binary.BigEndian.Uint64(b[8*i:])
	}
}
