package xdr

import (
	"bytes"
	"testing"

	"specrpc/internal/testutil"
)

// The allocation rule on the closure-path composites: a decoder never
// allocates more than the bytes that can still arrive could fill.

// countedDecoders are the three composites that allocate from a count
// read off the wire, each decoding into a fresh destination.
var countedDecoders = map[string]func(x *XDR) error{
	"Array": func(x *XDR) error {
		var v []int32
		return Array(x, &v, NoSizeLimit, (*XDR).Long)
	},
	"Bytes": func(x *XDR) error {
		var v []byte
		return x.Bytes(&v, NoSizeLimit)
	},
	"String": func(x *XDR) error {
		var v string
		return x.String(&v, NoSizeLimit)
	},
}

// streamsOver returns the two kinds of stream a decoder meets, each
// positioned at the start of body: the one that knows what is left, and
// a record stream read unit by unit, which does not.
func streamsOver(body []byte) map[string]func() Stream {
	framed := frame(body)
	return map[string]func() Stream{
		"MemStream": func() Stream { return NewMemDecode(body) },
		"RecStream": func() Stream { return NewRecStream(&rwPair{Reader: bytes.NewReader(framed)}, 0) },
	}
}

// TestHostileCountsAllocateLittle: a gigabyte count with nothing, or
// next to nothing, behind it fails in every composite on both kinds of
// stream — and fails cheaply.
func TestHostileCountsAllocateLittle(t *testing.T) {
	for _, body := range [][]byte{
		{0x3f, 0xff, 0xff, 0xff},
		{0xff, 0xff, 0xff, 0xfc, 1, 2, 3, 4, 5, 6, 7, 8},
	} {
		for name, decode := range countedDecoders {
			for kind, open := range streamsOver(body) {
				var err error
				got := testutil.AllocBytes(func() { err = decode(NewDecoder(open())) })
				if err == nil {
					t.Errorf("%s on a %s: count %x decoded", name, kind, body[:4])
				}
				if got > 1<<20 {
					t.Errorf("%s on a %s: allocated %d bytes for a count with %d bytes behind it", name, kind, got, len(body)-4)
				}
			}
		}
	}
}

// TestCountedDecodeGrowsWithTheData: where the stream cannot vouch for a
// count, a value larger than the first capped allocation still arrives
// whole — the allocation doubles behind the data — and on both kinds of
// stream the bytes are the ones sent.
func TestCountedDecodeGrowsWithTheData(t *testing.T) {
	blob := pattern(5*MaxBlindAlloc+3, 9)
	nums := make([]int32, MaxBlindAlloc) // four times the first allocation's elements
	for i := range nums {
		nums[i] = int32(i) * 7
	}
	bs := NewBufEncode(nil)
	enc := NewEncoder(bs)
	str := string(blob[:2*MaxBlindAlloc+1])
	if err := enc.Bytes(&blob, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	if err := Array(enc, &nums, NoSizeLimit, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if err := enc.String(&str, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	for kind, open := range streamsOver(bs.Buffer()) {
		dec := NewDecoder(open())
		var gotBlob []byte
		var gotNums []int32
		var gotStr string
		if err := dec.Bytes(&gotBlob, NoSizeLimit); err != nil || !bytes.Equal(gotBlob, blob) {
			t.Fatalf("%s: Bytes: %d bytes, err %v", kind, len(gotBlob), err)
		}
		if err := Array(dec, &gotNums, NoSizeLimit, (*XDR).Long); err != nil || len(gotNums) != len(nums) {
			t.Fatalf("%s: Array: %d elements, err %v", kind, len(gotNums), err)
		}
		for i := range nums {
			if gotNums[i] != nums[i] {
				t.Fatalf("%s: Array element %d = %d, want %d", kind, i, gotNums[i], nums[i])
			}
		}
		if err := dec.String(&gotStr, NoSizeLimit); err != nil || gotStr != str {
			t.Fatalf("%s: String: %d bytes, err %v", kind, len(gotStr), err)
		}
	}
}

// TestArrayOfNothing: an element of zero wire size is not refused
// however many the count announces — no bytes need follow them.
func TestArrayOfNothing(t *testing.T) {
	for kind, open := range streamsOver([]byte{0, 0, 0x27, 0x10}) {
		var v []struct{}
		calls := 0
		err := Array(NewDecoder(open()), &v, NoSizeLimit, func(*XDR, *struct{}) error { calls++; return nil })
		if err != nil || len(v) != 10000 || calls != 10000 {
			t.Errorf("%s: %d elements, %d decoded, err %v", kind, len(v), calls, err)
		}
	}
}

// TestCountedDecodeKeepsDestination: Array and Bytes follow the
// destination rule of every other decoder — a backing array with room
// for the count is decoded over, whatever its length was, so a
// destination decoded into again and again stops allocating; a zero
// count leaves nil nil and non-nil empty.
func TestCountedDecodeKeepsDestination(t *testing.T) {
	in := []int32{1, 2, 3}
	blob := []byte("abcde")
	bs := NewBufEncode(nil)
	if err := Array(NewEncoder(bs), &in, NoSizeLimit, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if err := NewEncoder(bs).Bytes(&blob, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	nums, raw := make([]int32, 8), make([]byte, 2, 16)
	firstNum, firstByte := &nums[0], &raw[0]
	dec := NewDecoder(NewMemDecode(bs.Buffer()))
	if err := Array(dec, &nums, NoSizeLimit, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if err := dec.Bytes(&raw, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	if len(nums) != 3 || nums[2] != 3 || &nums[0] != firstNum {
		t.Errorf("Array: %v, backing kept: %v", nums, &nums[0] == firstNum)
	}
	if string(raw) != "abcde" || &raw[0] != firstByte {
		t.Errorf("Bytes: %q, backing kept: %v", raw, &raw[0] == firstByte)
	}

	empty := []byte{0, 0, 0, 0}
	var nilNums []int32
	if err := Array(NewDecoder(NewMemDecode(empty)), &nilNums, NoSizeLimit, (*XDR).Long); err != nil || nilNums != nil {
		t.Errorf("zero count into nil: %v, err %v", nilNums, err)
	}
	if err := Array(NewDecoder(NewMemDecode(empty)), &nums, NoSizeLimit, (*XDR).Long); err != nil || nums == nil || len(nums) != 0 {
		t.Errorf("zero count into a used slice: %v, err %v", nums, err)
	}
}
