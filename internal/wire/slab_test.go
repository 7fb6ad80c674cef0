package wire

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

type slabPair struct {
	a int32
	b int64
}

// within reports whether n bytes at p lie inside the slab memory s.
func within(s []byte, p unsafe.Pointer, n uintptr) bool {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return uintptr(p) >= lo && uintptr(p)+n <= lo+uintptr(len(s))
}

// TestSlabSizesWhatItCarves: parts of mixed sizes and alignments, summed
// by SlabRoom into one NewSlab, all come out of the slab in the same
// order — aligned at their real address, cap == len, zeroed, disjoint —
// and the next part, for which it has no room, is allocated on its own.
func TestSlabSizesWhatItCarves(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for round := 0; round < 200; round++ {
		kinds := make([]int, 1+r.Intn(8))
		ns := make([]int, len(kinds))
		size := 0
		for i := range kinds {
			kinds[i], ns[i] = r.Intn(5), r.Intn(6)
			switch kinds[i] {
			case 0, 4:
				size = SlabRoom[byte](size, ns[i])
			case 1:
				size = SlabRoom[int32](size, ns[i])
			case 2:
				size = SlabRoom[int64](size, ns[i])
			case 3:
				size = SlabRoom[slabPair](size, max(ns[i], 1))
			}
		}
		slab := NewSlab(size)
		mem := slab.free
		src := []byte("odd-length source bytes")
		for i, k := range kinds {
			var p unsafe.Pointer
			var n, align uintptr
			switch k {
			case 0:
				s := Carve[byte](&slab, ns[i])
				p, n, align = unsafe.Pointer(unsafe.SliceData(s)), uintptr(len(s)), 1
				if cap(s) != len(s) {
					t.Fatalf("cap %d, len %d", cap(s), len(s))
				}
			case 1:
				s := Carve[int32](&slab, ns[i])
				p, n, align = unsafe.Pointer(unsafe.SliceData(s)), 4*uintptr(len(s)), 4
				for _, x := range s {
					if x != 0 {
						t.Fatal("carved memory not zeroed")
					}
				}
			case 2:
				s := Carve[int64](&slab, ns[i])
				p, n, align = unsafe.Pointer(unsafe.SliceData(s)), 8*uintptr(len(s)), unsafe.Alignof(int64(0))
			case 3:
				if ns[i] == 0 {
					q := CarveNew[slabPair](&slab)
					p, n, align = unsafe.Pointer(q), unsafe.Sizeof(*q), unsafe.Alignof(*q)
				} else {
					s := Carve[slabPair](&slab, ns[i])
					p, n, align = unsafe.Pointer(unsafe.SliceData(s)), unsafe.Sizeof(slabPair{})*uintptr(len(s)), unsafe.Alignof(slabPair{})
				}
			case 4:
				str := slab.String(src[:ns[i]])
				if str != string(src[:ns[i]]) {
					t.Fatalf("String = %q", str)
				}
				p, n, align = unsafe.Pointer(unsafe.StringData(str)), uintptr(len(str)), 1
			}
			if n > 0 && (!within(mem, p, n) || uintptr(p)%align != 0) {
				t.Fatalf("round %d part %d: %d bytes at %#x, outside the slab or misaligned to %d", round, i, n, p, align)
			}
		}
		if extra := Carve[int64](&slab, 1); within(mem, unsafe.Pointer(&extra[0]), 8) {
			t.Fatalf("round %d: a part the pre-pass did not size came out of the slab", round)
		}
	}
}

// TestSlabFallsBack: an empty slab — no parts, or a failed pre-pass —
// allocates nothing itself and hands every part out as the allocation
// it always was.
func TestSlabFallsBack(t *testing.T) {
	for _, size := range []int{0, -1, math.MaxInt} {
		if s := NewSlab(size); s.free != nil {
			t.Errorf("NewSlab(%d) has %d bytes", size, len(s.free))
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = NewSlab(0) }); n != 0 {
		t.Errorf("NewSlab(0): %v allocations", n)
	}
	var empty Slab
	if s := Carve[int32](&empty, 3); len(s) != 3 || cap(s) != 3 {
		t.Errorf("Carve from an empty slab: len %d cap %d", len(s), cap(s))
	}
	if CarveNew[slabPair](&empty) == nil {
		t.Error("CarveNew from an empty slab returned nil")
	}
	src := []byte("abc")
	str := empty.String(src)
	src[0] = 'x'
	if str != "abc" || empty.String(nil) != "" {
		t.Errorf("String from an empty slab: %q", str)
	}
	small := NewSlab(3)
	got := small.String([]byte("abc"))
	if s := small.String([]byte("defgh")); got != "abc" || s != "defgh" {
		t.Errorf("String past the end: %q, %q", got, s)
	}
}

// TestSlabRoomOverflows: a sum that overflows stays negative, so the
// decode gets no slab and allocates part by part.
func TestSlabRoomOverflows(t *testing.T) {
	al := int(unsafe.Alignof(int64(0))) // 8 on amd64, 4 on 386
	if got, want := SlabRoom[int64](3, 2), al+16; got != want {
		t.Errorf("SlabRoom[int64](3, 2) = %d, want %d", got, want)
	}
	for _, got := range []int{
		SlabRoom[int64](math.MaxInt-3, 1),
		SlabRoom[slabPair](8, math.MaxInt/8),
		SlabRoom[byte](-1, 5),
		SlabRoom[byte](SlabRoom[int32](math.MaxInt, 1), 0),
	} {
		if got >= 0 {
			t.Errorf("an overflowing sum reads %d", got)
		}
	}
}
