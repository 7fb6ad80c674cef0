package xdr

import (
	"bytes"
	"errors"
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

// foreignStream moves a MemStream's bytes without being one: a Stream
// that cannot say how much data is left.
type foreignStream struct{ *MemStream }

// streamsOver returns the two kinds of stream a decoder can meet, each
// positioned at the start of body: the one that knows what is left, and
// a foreign one, which does not.
func streamsOver(body []byte) map[string]func() Stream {
	return map[string]func() Stream{
		"MemStream": func() Stream { return NewMemDecode(body) },
		"foreign":   func() Stream { return foreignStream{NewMemDecode(body)} },
	}
}

// TestHostileCountsAllocateLittle: a gigabyte count with nothing, or
// next to nothing, behind it fails in every composite on both kinds of
// stream — and fails cheaply. Over the foreign stream every counted
// decode is refused, even one whose data is all there: only a stream
// that knows what is left can vouch for a count.
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
				if got >= 1<<10 {
					t.Errorf("%s on a %s: allocated %d bytes for a count with %d bytes behind it", name, kind, got, len(body)-4)
				}
			}
		}
	}
	whole := []byte{0, 0, 0, 1, 0, 0, 0, 7}
	for name, decode := range countedDecoders {
		if err := decode(NewDecoder(NewMemDecode(whole))); err != nil {
			t.Fatalf("%s on a MemStream: %v", name, err)
		}
		var err error
		got := testutil.AllocBytes(func() { err = decode(NewDecoder(foreignStream{NewMemDecode(whole)})) })
		if !errors.Is(err, ErrOverflow) || got >= 1<<10 {
			t.Errorf("%s on a foreign stream: err %v after %d bytes allocated; want ErrOverflow, under 1 KiB", name, err, got)
		}
	}
}

// TestCountedDecodeGrowsWithTheData: values far larger than any fixed
// allocation step arrive whole, the bytes the ones sent, each sized in
// one allocation from the count the MemStream vouched for.
func TestCountedDecodeGrowsWithTheData(t *testing.T) {
	const big = 64 << 10
	blob := pattern(5*big+3, 9)
	nums := make([]int32, big)
	for i := range nums {
		nums[i] = int32(i) * 7
	}
	bs := NewBufEncode(nil)
	enc := NewEncoder(bs)
	str := string(blob[:2*big+1])
	if err := enc.Bytes(&blob, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	if err := Array(enc, &nums, NoSizeLimit, (*XDR).Long); err != nil {
		t.Fatal(err)
	}
	if err := enc.String(&str, NoSizeLimit); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(NewMemDecode(bs.Buffer()))
	var gotBlob []byte
	var gotNums []int32
	var gotStr string
	if err := dec.Bytes(&gotBlob, NoSizeLimit); err != nil || !bytes.Equal(gotBlob, blob) || cap(gotBlob) != len(blob) {
		t.Fatalf("Bytes: %d bytes (cap %d), err %v", len(gotBlob), cap(gotBlob), err)
	}
	if err := Array(dec, &gotNums, NoSizeLimit, (*XDR).Long); err != nil || len(gotNums) != len(nums) || cap(gotNums) != len(nums) {
		t.Fatalf("Array: %d elements (cap %d), err %v", len(gotNums), cap(gotNums), err)
	}
	for i := range nums {
		if gotNums[i] != nums[i] {
			t.Fatalf("Array element %d = %d, want %d", i, gotNums[i], nums[i])
		}
	}
	if err := dec.String(&gotStr, NoSizeLimit); err != nil || gotStr != str {
		t.Fatalf("String: %d bytes, err %v", len(gotStr), err)
	}
}

// TestArrayOfNothing: an element of zero wire size is not refused
// however many the count announces — no bytes need follow them.
func TestArrayOfNothing(t *testing.T) {
	var v []struct{}
	calls := 0
	err := Array(NewDecoder(NewMemDecode([]byte{0, 0, 0x27, 0x10})), &v, NoSizeLimit, func(*XDR, *struct{}) error { calls++; return nil })
	if err != nil || len(v) != 10000 || calls != 10000 {
		t.Errorf("%d elements, %d decoded, err %v", len(v), calls, err)
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
