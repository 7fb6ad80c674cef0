package wire

import (
	"math"
	"unsafe"
)

// This file holds the memory of one compiled decode. Where a value has
// more than one variable-length part that holds no pointers — strings,
// variable opaque data, counted arrays and optional pointees of
// pointer-free elements — the rpcgen-emitted decoder does not allocate
// them one by one: a generated pre-pass (compiledSlab<T>) reads the
// body's counts with the decoder's own checks and sums the Go bytes the
// decode will allocate, skipping the slices it will decode over, and
// the decoder carves every part out of one []byte of exactly that size.
// The unsafe conversions stay here, so generated code does not import
// unsafe.
//
// The slab is owned by the value decoded into: nothing else refers to
// it, and the garbage collector frees it once no part of it is
// reachable. So a string or slice kept from a decoded value keeps the
// whole slab alive — the retention that buys one allocation a decode
// instead of one a part. Each part is aligned at its real address to its
// element's alignment and gets cap == len, so appending to a decoded
// slice copies it out instead of running over its neighbour. A part the
// slab has no room for — the pre-pass failed, so the decode is about to
// fail too, or the allocator aligned the slab less than a part needs —
// gets an allocation of its own, exactly as before slabs. The fused
// interpreter and the walker still allocate part by part; they are the
// reference the compiled decoders are checked against.

// Slab is the unused rest of one decode's pointer-free memory.
type Slab struct{ free []byte }

// NewSlab allocates a slab of size bytes, or returns an empty one when
// size is not positive (no part to carve, or a failed pre-pass). The
// size is rounded up to 8 so that the allocator aligns even a small slab
// for any part.
func NewSlab(size int) Slab {
	if size <= 0 || size > math.MaxInt-7 {
		return Slab{}
	}
	return Slab{make([]byte, (size+7)&^7)}
}

// SlabRoom is the pre-pass's accumulator: a slab of size bytes grown by
// n elements of T, aligned as Carve aligns them. A negative size is a
// sum that overflowed, and stays negative.
func SlabRoom[T any](size, n int) int {
	var z T
	es, al := int(unsafe.Sizeof(z)), int(unsafe.Alignof(z))
	if size < 0 || size > math.MaxInt-al || es > 0 && n > (math.MaxInt-al-size)/es {
		return -1
	}
	return (size+al-1)&^(al-1) + n*es
}

// take cuts size bytes aligned to align off the front of the slab, or
// reports that they do not fit.
//
//specrpc:hotpath
func (s *Slab) take(size, align uintptr) (unsafe.Pointer, bool) {
	if len(s.free) == 0 {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(s.free))
	pad := -uintptr(p) & (align - 1)
	if uintptr(len(s.free)) < pad+size {
		return nil, false
	}
	s.free = s.free[pad+size:]
	return unsafe.Add(p, pad), true
}

// Carve returns n zeroed elements of T, a type that holds no pointers,
// from the slab, or from a fresh allocation when it has no room for
// them. The slice's capacity is its length.
//
//specrpc:hotpath
func Carve[T any](s *Slab, n int) []T {
	var z T
	if es := unsafe.Sizeof(z); es > 0 && uintptr(n) <= uintptr(len(s.free))/es {
		if p, ok := s.take(uintptr(n)*es, unsafe.Alignof(z)); ok {
			return unsafe.Slice((*T)(p), n)
		}
	}
	return make([]T, n)
}

// CarveNew is new(T) for a T that holds no pointers, from the slab when
// it has room.
//
//specrpc:hotpath
func CarveNew[T any](s *Slab) *T {
	var z T
	if unsafe.Sizeof(z) > 0 {
		if p, ok := s.take(unsafe.Sizeof(z), unsafe.Alignof(z)); ok {
			return (*T)(p)
		}
	}
	return new(T)
}

// String copies b into the slab and returns it as a string, or converts
// it as string(b) does when the slab has no room.
//
//specrpc:hotpath
func (s *Slab) String(b []byte) string {
	if len(b) == 0 || len(b) > len(s.free) {
		return string(b)
	}
	n := copy(s.free, b)
	str := unsafe.String(unsafe.SliceData(s.free), n)
	s.free = s.free[n:]
	return str
}
