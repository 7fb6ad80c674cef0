package layout

// Differential checks for the compiled codecs of layout.x, the shapes
// rich.x leaves out: across random values and arbitrary (often hostile)
// bodies the generic walker, the fused interpreter and the emitted
// routines must write the same bytes, make the same accept/reject
// decision, decode the same value into fresh and reused destinations,
// and never allocate on the word of a count alone.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// engine is one rung over a root type: the plan it runs and the rung its
// whole-message codecs must land on.
type engine[T any] struct {
	name string
	plan *wire.Plan[T]
	rung wire.Rung
}

// decode runs the engine's body decoder.
func (en engine[T]) decode(body []byte, v *T) error {
	return en.plan.Codec().BodyDecoder()(body, unsafe.Pointer(v))
}

// engines are one root type's three rungs, the walker first: the
// interpretive walker, a second specialized plan with nothing registered
// (the fused interpreter), and the package plan rpcgen registered its
// emitted routines on.
type engines[T any] []engine[T]

func newEngines[T any](t *wire.Type, compiled *wire.Plan[T]) engines[T] {
	return engines[T]{
		{"generic", wire.MustPlan[T](t, wire.Generic), wire.RungGeneric},
		{"fused", wire.MustPlan[T](t, wire.Specialized), wire.RungFused},
		{"compiled", compiled, wire.RungCompiled},
	}
}

var (
	arraysEngines = newEngines(wireTypeArrays, planArrays)
	manyEngines   = newEngines(wireTypeMany, planMany)
	namesEngines  = newEngines(wireTypeNames, planNames)
	nestedEngines = newEngines(wireTypeNested, planNested)
)

// checkEncode encodes v as a call and as a reply on every rung and
// fails unless the three messages are byte-identical.
func (e engines[T]) checkEncode(t *testing.T, ctmpl *rpcmsg.CallTemplate, rtmpl *rpcmsg.ReplyTemplate, xid uint32, v *T) []byte {
	t.Helper()
	var call, reply []byte
	for _, r := range e {
		cc, err := wire.NewCallCodec(ctmpl, 1, r.plan.Codec())
		if err != nil {
			t.Fatal(err)
		}
		rc := wire.NewReplyCodec(rtmpl, r.plan.Codec())
		if cc.Rung() != r.rung || rc.Rung() != r.rung {
			t.Fatalf("%s: call codec on the %v rung, reply codec on the %v rung", r.name, cc.Rung(), rc.Rung())
		}
		cb, rb := xdr.NewBufEncode(nil), xdr.NewBufEncode(nil)
		if err := cc.Append(cb, xid, unsafe.Pointer(v)); err != nil {
			t.Fatalf("%s call encode: %v", r.name, err)
		}
		if err := rc.Append(rb, xid, unsafe.Pointer(v)); err != nil {
			t.Fatalf("%s reply encode: %v", r.name, err)
		}
		if call == nil {
			call, reply = cb.Buffer(), rb.Buffer()
			continue
		}
		if !bytes.Equal(cb.Buffer(), call) {
			t.Fatalf("%s call differs from the walker's\n got %x\nwant %x", r.name, cb.Buffer(), call)
		}
		if !bytes.Equal(rb.Buffer(), reply) {
			t.Fatalf("%s reply differs from the walker's\n got %x\nwant %x", r.name, rb.Buffer(), reply)
		}
	}
	return call[ctmpl.Len():]
}

// checkDecode runs the three decoders over body twice, into fresh
// values and then again into the same ones, and fails unless they agree
// on accept or reject — on reject, on the error too — and, on accept, on
// the value. On a body they all reject, none may allocate more than a
// constant times its length.
func (e engines[T]) checkDecode(t *testing.T, body []byte) {
	t.Helper()
	vals := make([]T, len(e))
	errs := make([]error, len(e))
	for pass := 0; pass < 2; pass++ {
		for i, en := range e {
			errs[i] = en.decode(body, &vals[i])
		}
		for i := 1; i < len(e); i++ {
			if (errs[i] == nil) != (errs[0] == nil) || !errors.Is(errs[i], errs[0]) {
				t.Fatalf("pass %d: %s decode %v, generic %v", pass, e[i].name, errs[i], errs[0])
			}
			if errs[0] == nil && !same(vals[i], vals[0]) {
				t.Fatalf("pass %d: %s decoded %+v, generic %+v", pass, e[i].name, vals[i], vals[0])
			}
		}
	}
	if errs[0] == nil {
		return
	}
	for _, en := range e {
		got := testutil.AllocBytes(func() {
			var fresh T
			_ = en.decode(body, &fresh)
		})
		if got > 4096+8*uint64(len(body)) {
			t.Fatalf("%s decode allocated %d bytes rejecting a %d-byte body", en.name, got, len(body))
		}
	}
}

// checkReuse decodes two messages into one destination, in both orders,
// on every rung: each must leave what a decode into a fresh value
// leaves, but for the defined difference that a backing array is kept,
// so a slice the later message leaves empty is empty, not nil, where
// the earlier one filled it.
func (e engines[T]) checkReuse(t *testing.T, msgs [2][]byte) {
	t.Helper()
	var fresh [2]T
	for i, m := range msgs {
		if err := e[0].decode(m, &fresh[i]); err != nil {
			t.Fatalf("decode message %d: %v", i, err)
		}
	}
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		want := expectReused(fresh[order[0]], fresh[order[1]])
		for _, en := range e {
			var v T
			for _, m := range order {
				if err := en.decode(msgs[m], &v); err != nil {
					t.Fatalf("%s decode of message %d into a used value: %v", en.name, m, err)
				}
			}
			if !same(v, want) {
				t.Fatalf("%s decode into a used value\n got %+v\nwant %+v", en.name, v, want)
			}
		}
	}
}

// same compares decoded values by their Go syntax, which tells a nil
// slice from an empty one and, unlike reflect.DeepEqual, holds a NaN
// equal to itself.
func same(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// expectReused is fresh with every top-level slice field that fresh
// leaves empty and prior filled made non-nil and empty.
func expectReused[T any](prior, fresh T) T {
	pv, fv := reflect.ValueOf(&prior).Elem(), reflect.ValueOf(&fresh).Elem()
	for i := 0; i < fv.NumField(); i++ {
		if f := fv.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 && !pv.Field(i).IsNil() {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	return fresh
}

// source hands out the fuzzer's raw bytes as values; past the end it
// hands out zeros.
type source struct{ raw []byte }

func (s *source) u64() uint64 {
	var b [8]byte
	n := copy(b[:], s.raw)
	s.raw = s.raw[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// count is a length in [0, max].
func (s *source) count(max int) int { return int(s.u64() % uint64(max+1)) }

func (s *source) str(max int) string {
	n := min(s.count(max), len(s.raw))
	out := string(s.raw[:n])
	s.raw = s.raw[n:]
	return out
}

func (s *source) nested() Nested {
	u := s.u64()
	return Nested{A: int32(u), S: Inner{P: int32(u >> 32), Q: int64(s.u64())}}
}

func (s *source) named() Named { return Named{Nm: s.str(8), K: int32(s.u64())} }

// fuzzArrays derives an Arrays value from raw, every count inside its
// bound. Deterministic, so a crash reproduces from its corpus entry.
func fuzzArrays(raw []byte) Arrays {
	s := &source{raw}
	var v Arrays
	for i := range v.Hs {
		v.Hs[i] = int64(s.u64())
	}
	for range s.count(8) {
		v.Ds = append(v.Ds, math.Float64frombits(s.u64()))
	}
	for i := range v.Us {
		v.Us[i] = s.u64()
	}
	for range s.count(9) {
		v.Hv = append(v.Hv, int64(s.u64()))
	}
	for i := range v.Ins {
		u := s.u64()
		v.Ins[i] = Inner{P: int32(u), Q: int64(u) * 3}
	}
	flags := s.u64()
	for i := range v.Flags {
		v.Flags[i] = flags>>i&1 == 1
	}
	for i := range v.Sw {
		v.Sw[i] = W5(s.str(5))
	}
	for range s.count(4) {
		v.Ns = append(v.Ns, s.named())
	}
	for i := range v.Nf {
		v.Nf[i] = s.nested()
	}
	for range s.count(3) {
		v.Nv = append(v.Nv, s.nested())
	}
	return v
}

// FuzzLayoutCodec: on every shape of layout.x the three engines write
// byte-identical calls and replies, the compiled decoder recovers the
// value, and on arbitrary bodies the decoders agree on accept/reject,
// on the value, and on what a reused destination is left holding.
func FuzzLayoutCodec(f *testing.F) {
	f.Add(uint32(1), []byte{})
	f.Add(uint32(7), bytes.Repeat([]byte{0xa5, 3, 0, 0x80, 1, 0xff, 7, 9}, 40))
	// A many body whose count the bytes behind it cannot hold, and a
	// names one whose count fits the 4-byte floor but not the element.
	f.Add(uint32(2), []byte{0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, xid uint32, raw []byte) {
		ctmpl, err := rpcmsg.NewCallTemplate(0x20000200, 1, rpcmsg.None(), rpcmsg.None())
		if err != nil {
			t.Fatal(err)
		}
		rtmpl, err := rpcmsg.NewReplyTemplate(rpcmsg.None())
		if err != nil {
			t.Fatal(err)
		}

		v := fuzzArrays(raw)
		body := arraysEngines.checkEncode(t, ctmpl, rtmpl, xid, &v)
		var got Arrays
		if err := arraysEngines[2].decode(body, &got); err != nil {
			t.Fatalf("compiled decode of an encoded value: %v", err)
		}
		if !same(got, v) {
			t.Fatalf("compiled decode\n got %+v\nwant %+v", got, v)
		}
		w := fuzzArrays(raw[len(raw)/2:])
		arraysEngines.checkReuse(t, [2][]byte{body, arraysEngines.checkEncode(t, ctmpl, rtmpl, xid, &w)})

		many := Many{Ns: append(v.Nv, v.Nf[:]...)}
		names := Names{V: v.Ns}
		manyEngines.checkEncode(t, ctmpl, rtmpl, xid, &many)
		namesEngines.checkEncode(t, ctmpl, rtmpl, xid, &names)
		nestedEngines.checkEncode(t, ctmpl, rtmpl, xid, &v.Nf[0])

		arraysEngines.checkDecode(t, raw)
		manyEngines.checkDecode(t, raw)
		namesEngines.checkDecode(t, raw)
		nestedEngines.checkDecode(t, raw)
	})
}

// TestCountedCompositeMinWire: a counted array's count is checked against
// the element's smallest wire size, not the 4-byte floor, by every
// engine. A many body claiming 2²⁰ nested elements (16 wire bytes each)
// with 4 MiB behind it fails before anything is allocated; at the floor
// the count passes and the decoder allocates the whole slice first.
func TestCountedCompositeMinWire(t *testing.T) {
	body := make([]byte, 4+4<<20)
	binary.BigEndian.PutUint32(body, 1<<20)
	for _, en := range manyEngines {
		var err error
		got := testutil.AllocBytes(func() {
			var v Many
			err = en.decode(body, &v)
		})
		if !errors.Is(err, xdr.ErrOverflow) {
			t.Errorf("%s: %v, want %v", en.name, err, xdr.ErrOverflow)
		}
		if got > 4096 {
			t.Errorf("%s allocated %d bytes rejecting a %d-byte body", en.name, got, len(body))
		}
	}
}

// TestCountedCompositeError: a names body claiming two named elements (8
// wire bytes each at their smallest) with 8 bytes behind it is short,
// and every engine says so — not that the first string is too long.
func TestCountedCompositeError(t *testing.T) {
	body := []byte{0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 0}
	for _, en := range namesEngines {
		var v Names
		if err := en.decode(body, &v); !errors.Is(err, xdr.ErrOverflow) {
			t.Errorf("%s: %v, want %v", en.name, err, xdr.ErrOverflow)
		}
	}
}

// TestCountBeyondInt: a count of 2³¹ in an unbounded field is short of
// data on every host, and every engine, the emitted decoders included,
// says so. On a 32-bit host it reads negative as an int, which the
// emitted decoder once sliced by.
func TestCountBeyondInt(t *testing.T) {
	body := append([]byte{0x80, 0, 0, 0}, make([]byte, 16)...)
	for _, en := range manyEngines {
		var v Many
		if err := en.decode(body, &v); !errors.Is(err, xdr.ErrOverflow) {
			t.Errorf("many, %s: %v, want %v", en.name, err, xdr.ErrOverflow)
		}
	}
	for _, en := range namesEngines {
		var v Names
		if err := en.decode(body, &v); !errors.Is(err, xdr.ErrOverflow) {
			t.Errorf("names, %s: %v, want %v", en.name, err, xdr.ErrOverflow)
		}
	}
}
