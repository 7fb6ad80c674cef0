package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The reference the kernels are held to: one unit at a time, byte by
// byte, no wider access anywhere.
func refPut(w []byte, units []uint64, width int) {
	for i, u := range units {
		for k := 0; k < width; k++ {
			w[width*i+k] = byte(u >> (8 * (width - 1 - k)))
		}
	}
}

func refGet(b []byte, n, width int) []uint64 {
	units := make([]uint64, n)
	for i := range units {
		for k := 0; k < width; k++ {
			units[i] = units[i]<<8 | uint64(b[width*i+k])
		}
	}
	return units
}

const guard = 0xa5

// checkRun drives one kernel pair over n units whose wire window starts
// woff bytes into a larger buffer and whose memory starts moff elements
// into a larger slice — so the 64-bit accesses run at every alignment —
// and requires byte identity with the reference in both directions,
// with every byte and element outside the two windows left alone.
func checkRun(t testing.TB, width, n, woff, moff int, data []byte) {
	t.Helper()
	if width == 4 {
		checkKernels(t, putUnits32, getUnits32, n, woff, moff, data)
	} else {
		checkKernels(t, putUnits64, getUnits64, n, woff, moff, data)
	}
}

func checkKernels[U uint32 | uint64](t testing.TB, put func([]byte, []U), get func([]U, []byte), n, woff, moff int, data []byte) {
	t.Helper()
	const slack = 9 // guard bytes, or elements, behind each window
	var u U
	width := binary.Size(u)
	mem := make([]U, moff+n+slack)
	for i := range mem {
		mem[i] = guard
	}
	s := mem[moff : moff+n : moff+n]
	units := make([]uint64, n)
	for i := range s {
		var raw [8]byte
		copy(raw[:], data[min(len(data), 8*i):])
		s[i] = U(binary.LittleEndian.Uint64(raw[:]) ^ uint64(i)*0x9e3779b97f4a7c15)
		units[i] = uint64(s[i])
	}
	want := make([]byte, width*n)
	refPut(want, units, width)

	wire := bytes.Repeat([]byte{guard}, woff+width*n+slack)
	put(wire[woff:woff+width*n:woff+width*n], s)
	if got := wire[woff : woff+width*n]; !bytes.Equal(got, want) {
		t.Fatalf("width %d, n %d, woff %d, moff %d: put\n got %x\nwant %x", width, n, woff, moff, got, want)
	}
	for i, c := range wire {
		if (i < woff || i >= woff+width*n) && c != guard {
			t.Fatalf("width %d, n %d, woff %d: put wrote byte %d of its buffer, outside the window", width, n, woff, i)
		}
	}

	for i := range s {
		s[i] = guard
	}
	get(s, wire[woff:]) // a window longer than the run: only its front is read
	back := refGet(wire[woff:], n, width)
	for i, u := range mem {
		switch {
		case i >= moff && i < moff+n:
			if uint64(u) != back[i-moff] || uint64(u) != units[i-moff] {
				t.Fatalf("width %d, n %d, woff %d, moff %d: get unit %d = %#x, want %#x", width, n, woff, moff, i-moff, u, units[i-moff])
			}
		case u != guard:
			t.Fatalf("width %d, n %d, moff %d: get wrote element %d of its array, outside the slice", width, n, moff, i)
		}
	}
}

// TestRunKernelsEveryEdge: byte identity with the one-unit-at-a-time
// reference at every count 0..67 (every residue of the per-unit tail,
// several trips of the four-word loop) and every wire-window offset
// 0..7, at both memory alignments, both widths, both directions. It
// runs under -race as well, where checkptr watches the accesses.
func TestRunKernelsEveryEdge(t *testing.T) {
	data := make([]byte, 8*68)
	rand.New(rand.NewSource(21)).Read(data)
	for _, width := range []int{4, 8} {
		for n := 0; n <= 67; n++ {
			for woff := 0; woff < 8; woff++ {
				for moff := 0; moff < 2; moff++ {
					checkRun(t, width, n, woff, moff, data)
				}
			}
		}
	}
}

type hue int32
type stamp uint64

// TestRunKernelsGenericForms: the exported forms the emitted routines
// call move every element type of their constraint as its bit pattern —
// a float is not converted, a named type needs no cast — and agree with
// encoding/binary unit by unit.
func TestRunKernelsGenericForms(t *testing.T) {
	f32 := []float32{1.5, float32(math.Copysign(0, -1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), 3e-39, 7, 8, 9, 10}
	w := make([]byte, 4*len(f32))
	PutUnits32(w, f32)
	for i, f := range f32 {
		if got, want := binary.BigEndian.Uint32(w[4*i:]), math.Float32bits(f); got != want {
			t.Fatalf("float32 %d: %#x, want %#x", i, got, want)
		}
	}
	back32 := make([]float32, len(f32))
	GetUnits32(back32, w)
	for i := range f32 {
		if math.Float32bits(back32[i]) != math.Float32bits(f32[i]) {
			t.Fatalf("float32 %d came back as %v", i, back32[i])
		}
	}
	hues := []hue{-1, 0, 5, math.MinInt32, math.MaxInt32}
	w = make([]byte, 4*len(hues))
	PutUnits32(w, hues)
	backH := make([]hue, len(hues))
	GetUnits32(backH, w)
	for i, h := range hues {
		if int32(binary.BigEndian.Uint32(w[4*i:])) != int32(h) || backH[i] != h {
			t.Fatalf("enum %d: wire %x, back %d", i, w[4*i:4*i+4], backH[i])
		}
	}
	PutUnits32(w[:8], []uint32{0x01020304, 0xfffefdfc})
	if !bytes.Equal(w[:8], []byte{1, 2, 3, 4, 0xff, 0xfe, 0xfd, 0xfc}) {
		t.Fatalf("uint32: %x", w[:8])
	}

	f64 := []float64{math.Pi, math.Copysign(0, -1), math.Inf(1), math.Float64frombits(0x7ff8000000000001), 5e-324}
	w = make([]byte, 8*len(f64))
	PutUnits64(w, f64)
	back64 := make([]float64, len(f64))
	GetUnits64(back64, w)
	for i, f := range f64 {
		if got, want := binary.BigEndian.Uint64(w[8*i:]), math.Float64bits(f); got != want || math.Float64bits(back64[i]) != want {
			t.Fatalf("float64 %d: wire %#x, back %v, want %#x", i, got, back64[i], want)
		}
	}
	stamps := []stamp{0, 1, math.MaxUint64, 0x0102030405060708}
	w = make([]byte, 8*len(stamps))
	PutUnits64(w, stamps)
	backS := make([]stamp, len(stamps))
	GetUnits64(backS, w)
	for i, s := range stamps {
		if binary.BigEndian.Uint64(w[8*i:]) != uint64(s) || backS[i] != s {
			t.Fatalf("uhyper %d: wire %x, back %d", i, w[8*i:8*i+8], backS[i])
		}
	}
	h64 := []int64{math.MinInt64, -1}
	PutUnits64(w[:16], h64)
	GetUnits64(h64, w)
	if h64[0] != math.MinInt64 || h64[1] != -1 {
		t.Fatalf("hyper came back as %v", h64)
	}

	// Empty and nil runs touch nothing.
	PutUnits32(nil, []int32(nil))
	GetUnits64([]uint64{}, nil)
}

// TestRunKernelsRefuseShortWindows: the one bounds proof is up front — a
// window too short for the run panics before a byte or an element
// moves, it is never partly filled.
func TestRunKernelsRefuseShortWindows(t *testing.T) {
	w, s32, s64 := make([]byte, 39), make([]uint32, 10), make([]uint64, 5)
	ones32, ones64 := bytes.Repeat([]byte{1}, 39), []uint64{1, 1, 1, 1, 1}
	for name, f := range map[string]func(){
		"put32": func() { putUnits32(w, []uint32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) },
		"get32": func() { getUnits32(s32, ones32) },
		"put64": func() { putUnits64(w, ones64) },
		"get64": func() { getUnits64(s64, ones32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a short window did not panic", name)
				}
			}()
			f()
		}()
	}
	if !bytes.Equal(w, make([]byte, 39)) || s32[0] != 0 || s64[0] != 0 {
		t.Errorf("a refused run still moved data: %x %v %v", w, s32, s64)
	}
}

// FuzzRunKernels is the kernels' differential: random data, count and
// offsets against the one-unit-at-a-time reference, guard bytes and all.
func FuzzRunKernels(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint16(9), uint8(3), false)
	f.Add([]byte{}, uint16(0), uint8(0), true)
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80}, 400), uint16(150), uint8(7), true)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, off uint8, wide bool) {
		width := 4
		if wide {
			width = 8
		}
		checkRun(t, width, int(n%512), int(off%8), int(off>>3)%2, data)
	})
}
