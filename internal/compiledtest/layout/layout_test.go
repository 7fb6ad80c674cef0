package layout

// Differential checks for the compiled codecs of layout.x, the shapes
// rich.x leaves out: across random values and arbitrary (often hostile)
// bodies the generic walker, the fused interpreter and the emitted
// routines must write the same bytes, make the same accept/reject
// decision, decode the same value into fresh and reused destinations,
// and never allocate on the word of a count alone. On unions and
// optional data they also agree on what a reused destination is left
// holding: the arms a message does not select are left as they were,
// and a set pointer's pointee is decoded over.

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	arraysEngines   = newEngines(wireTypeArrays, planArrays)
	manyEngines     = newEngines(wireTypeMany, planMany)
	namesEngines    = newEngines(wireTypeNames, planNames)
	nestedEngines   = newEngines(wireTypeNested, planNested)
	unionsEngines   = newEngines(wireTypeUnions, planUnions)
	choiceEngines   = newEngines(wireTypeChoice, planChoice)
	tintedEngines   = newEngines(wireTypeTinted, planTinted)
	optinnerEngines = newEngines(wireTypeOptinner, planOptinner)
	intlistEngines  = newEngines(wireTypeIntlist, planIntlist)
	exportsEngines  = newEngines(wireTypeExports, planExports)
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
			if errs[0] == nil && !testutil.Same(vals[i], vals[0]) {
				t.Fatalf("pass %d: %s decoded %+v, generic %+v", pass, e[i].name, vals[i], vals[0])
			}
		}
	}
	if errs[0] == nil {
		e.checkCarved(t, body)
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

// checkCarved decodes body, which every rung accepts, into a fresh
// value on each and holds the value to testutil.CheckCarved: the parts
// the compiled decoder carves from one slab have cap == len, are
// aligned, and do not overlap each other or a string.
func (e engines[T]) checkCarved(t *testing.T, body []byte) {
	t.Helper()
	for _, en := range e {
		var fresh T
		if err := en.decode(body, &fresh); err != nil {
			t.Fatalf("%s decode: %v", en.name, err)
		}
		if err := testutil.CheckCarved(&fresh); err != nil {
			t.Fatalf("%s decode of %x: %v", en.name, body, err)
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
			if !testutil.Same(v, want) {
				t.Fatalf("%s decode into a used value\n got %+v\nwant %+v", en.name, v, want)
			}
		}
	}
}

// checkReuseAgree decodes two messages into one destination, in both
// orders, on every rung, and fails unless each leaves what the walker
// leaves. It is checkReuse for values with unions or optional data,
// where a reused destination is not a fresh one plus kept backing
// arrays: an arm the later message does not select keeps what the
// earlier one decoded into it, as the xdr closures leave it.
func (e engines[T]) checkReuseAgree(t *testing.T, msgs [2][]byte) {
	t.Helper()
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		vals := make([]T, len(e))
		for i, en := range e {
			for _, m := range order {
				if err := en.decode(msgs[m], &vals[i]); err != nil {
					t.Fatalf("%s decode of message %d into a used value: %v", en.name, m, err)
				}
			}
			if !testutil.Same(vals[i], vals[0]) {
				t.Fatalf("%s decode into a used value\n got %s\nwant %s", en.name, testutil.Show(vals[i]), testutil.Show(vals[0]))
			}
		}
	}
}

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

// choice draws a choice on one of its arms, the default's included.
func (s *source) choice() Choice {
	u := s.u64()
	c := Choice{Sel: []uint32{0, 1, 4000000000, 2, uint32(u >> 32)}[u%5]}
	switch c.Sel {
	case 0:
	case 1, 4000000000:
		c.H = int64(s.u64())
	case 2:
		c.Nm = s.named()
	default:
		c.Other = int32(u >> 8)
	}
	return c
}

// tinted draws a tinted on one of its three arms.
func (s *source) tinted() Tinted {
	t := Tinted{T: []Tint{TRED, TGREEN, TBLUE}[s.u64()%3]}
	switch t.T {
	case TRED:
		t.S = s.str(8)
	case TBLUE:
		u := s.u64()
		t.Inr = Inner{P: int32(u), Q: int64(u) >> 3}
	}
	return t
}

func (s *source) optinner() Optinner {
	if u := s.u64(); u&1 == 1 {
		return &Inner{P: int32(u >> 1), Q: -int64(u)}
	}
	return nil
}

// intlist draws a list of up to max links behind its head.
func (s *source) intlist(max int) Intlist {
	v := Intlist{V: int32(s.u64())}
	for p, n := &v.Next, s.count(max); n > 0; n-- {
		*p = &Intlist{V: int32(s.u64())}
		p = &(*p).Next
	}
	return v
}

// exports draws an export list of up to 3 nodes, each with up to 3
// groups, nil when empty as a decode leaves it.
func (s *source) exports() Exports {
	var head Exports
	for p, n := &head, s.count(3); n > 0; n-- {
		e := &Exportnode{ExDir: s.str(16)}
		for g, k := &e.ExGroups, s.count(3); k > 0; k-- {
			*g = &Groupnode{GrName: s.str(8)}
			g = &(*g).GrNext
		}
		*p = e
		p = &e.ExNext
	}
	return head
}

// fuzzUnions derives a Unions value from raw, every count inside its
// bound and every discriminant one its union accepts.
func fuzzUnions(raw []byte) Unions {
	s := &source{raw}
	v := Unions{C: s.choice()}
	for range s.count(6) {
		v.Tv = append(v.Tv, s.tinted())
	}
	for i := range v.Cf {
		v.Cf[i] = s.choice()
	}
	for range s.count(5) {
		v.Ov = append(v.Ov, s.optinner())
	}
	for i := range v.Of {
		v.Of[i] = s.optinner()
	}
	if s.u64()&1 == 1 {
		nm := s.named()
		v.On = &nm
	}
	v.Tail = int32(s.u64())
	return v
}

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
	// Hostile discriminants and flags: a tinted no arm lists (3), a
	// choice past 2^31 on its default arm, and optional flags of 2 and
	// 0xffffffff, which mean "follows" as any nonzero xdr_bool does.
	f.Add(uint32(3), []byte{0, 0, 0, 3, 0, 0, 0, 1})
	f.Add(uint32(4), []byte{0xf0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 2,
		0, 0, 0, 2, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8})
	// Lists: an intlist of two links, a link flag of 2 that the bytes
	// behind it cannot fill, and an export list whose node holds a group
	// list, its flags 0xffffffff.
	f.Add(uint32(5), []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 0})
	f.Add(uint32(6), []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 5})
	f.Add(uint32(7), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0x2f, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 2, 0x67, 0x31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
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
		if !testutil.Same(got, v) {
			t.Fatalf("compiled decode\n got %+v\nwant %+v", got, v)
		}
		arraysEngines.checkCarved(t, body)
		w := fuzzArrays(raw[len(raw)/2:])
		arraysEngines.checkReuse(t, [2][]byte{body, arraysEngines.checkEncode(t, ctmpl, rtmpl, xid, &w)})

		many := Many{Ns: append(v.Nv, v.Nf[:]...)}
		names := Names{V: v.Ns}
		manyEngines.checkEncode(t, ctmpl, rtmpl, xid, &many)
		namesEngines.checkCarved(t, namesEngines.checkEncode(t, ctmpl, rtmpl, xid, &names))
		nestedEngines.checkEncode(t, ctmpl, rtmpl, xid, &v.Nf[0])

		arraysEngines.checkDecode(t, raw)
		manyEngines.checkDecode(t, raw)
		namesEngines.checkDecode(t, raw)
		nestedEngines.checkDecode(t, raw)

		u := fuzzUnions(raw)
		ub := unionsEngines.checkEncode(t, ctmpl, rtmpl, xid, &u)
		var gotU Unions
		if err := unionsEngines[2].decode(ub, &gotU); err != nil {
			t.Fatalf("compiled decode of an encoded unions: %v", err)
		}
		if !testutil.Same(gotU, u) {
			t.Fatalf("compiled decode\n got %s\nwant %s", testutil.Show(gotU), testutil.Show(u))
		}
		unionsEngines.checkCarved(t, ub)
		u2 := fuzzUnions(raw[len(raw)/3:])
		unionsEngines.checkReuseAgree(t, [2][]byte{ub, unionsEngines.checkEncode(t, ctmpl, rtmpl, xid, &u2)})
		choiceEngines.checkEncode(t, ctmpl, rtmpl, xid, &u.C)
		if len(u.Tv) > 0 {
			tintedEngines.checkEncode(t, ctmpl, rtmpl, xid, &u.Tv[0])
		}
		optinnerEngines.checkEncode(t, ctmpl, rtmpl, xid, &u.Of[0])

		unionsEngines.checkDecode(t, raw)
		choiceEngines.checkDecode(t, raw)
		tintedEngines.checkDecode(t, raw)
		optinnerEngines.checkDecode(t, raw)
		// The raw bytes decoded over the value before and after.
		unionsEngines.checkReuseAgreeOn(t, ub, raw)

		ls := &source{raw}
		il, il2 := ls.intlist(8), ls.intlist(8)
		ex, ex2 := ls.exports(), ls.exports()
		ib := intlistEngines.checkEncode(t, ctmpl, rtmpl, xid, &il)
		eb := exportsEngines.checkEncode(t, ctmpl, rtmpl, xid, &ex)
		var gotI Intlist
		var gotE Exports
		if err := intlistEngines[2].decode(ib, &gotI); err != nil || !testutil.Same(gotI, il) {
			t.Fatalf("compiled decode of an intlist: %s, %v; want %s", testutil.Show(gotI), err, testutil.Show(il))
		}
		if err := exportsEngines[2].decode(eb, &gotE); err != nil || !testutil.Same(gotE, ex) {
			t.Fatalf("compiled decode of exports: %s, %v; want %s", testutil.Show(gotE), err, testutil.Show(ex))
		}
		exportsEngines.checkCarved(t, eb)
		intlistEngines.checkReuseAgree(t, [2][]byte{ib, intlistEngines.checkEncode(t, ctmpl, rtmpl, xid, &il2)})
		exportsEngines.checkReuseAgree(t, [2][]byte{eb, exportsEngines.checkEncode(t, ctmpl, rtmpl, xid, &ex2)})
		intlistEngines.checkDecode(t, raw)
		exportsEngines.checkDecode(t, raw)
		intlistEngines.checkReuseAgreeOn(t, ib, raw)
		exportsEngines.checkReuseAgreeOn(t, eb, raw)
	})
}

// checkReuseAgreeOn decodes a good message and then body, which may be
// anything, into one destination on every rung, and fails unless they
// agree on the verdict and, on accept, on what the destination holds.
func (e engines[T]) checkReuseAgreeOn(t *testing.T, good, body []byte) {
	t.Helper()
	vals := make([]T, len(e))
	errs := make([]error, len(e))
	for i, en := range e {
		if err := en.decode(good, &vals[i]); err != nil {
			t.Fatalf("%s decode of a good message: %v", en.name, err)
		}
		errs[i] = en.decode(body, &vals[i])
		if !errors.Is(errs[i], errs[0]) || (errs[i] == nil) != (errs[0] == nil) {
			t.Fatalf("%s decode over a used value: %v, generic %v", en.name, errs[i], errs[0])
		}
		if errs[0] == nil && !testutil.Same(vals[i], vals[0]) {
			t.Fatalf("%s decode over a used value\n got %s\nwant %s", en.name, testutil.Show(vals[i]), testutil.Show(vals[0]))
		}
	}
}

// TestUnionRefusals: a discriminant no arm lists and no default covers
// is xdr.ErrBadUnion on every rung, encoding and decoding alike; a
// union with a default arm takes any value.
func TestUnionRefusals(t *testing.T) {
	ctmpl, err := rpcmsg.NewCallTemplate(0x20000200, 1, rpcmsg.None(), rpcmsg.None())
	if err != nil {
		t.Fatal(err)
	}
	bad := Tinted{T: 3, S: "kept"}
	for _, en := range tintedEngines {
		cc, err := wire.NewCallCodec(ctmpl, 1, en.plan.Codec())
		if err != nil {
			t.Fatal(err)
		}
		if err := cc.Append(xdr.NewBufEncode(nil), 1, unsafe.Pointer(&bad)); !errors.Is(err, xdr.ErrBadUnion) {
			t.Errorf("%s encode of discriminant 3: %v, want %v", en.name, err, xdr.ErrBadUnion)
		}
		v := Tinted{S: "kept"}
		if err := en.decode([]byte{0, 0, 0, 3, 0, 0, 0, 1, 'x', 0, 0, 0}, &v); !errors.Is(err, xdr.ErrBadUnion) {
			t.Errorf("%s decode of discriminant 3: %v, want %v", en.name, err, xdr.ErrBadUnion)
		}
		// As the closures did: the discriminant is stored, no arm is.
		if v.T != 3 || v.S != "kept" {
			t.Errorf("%s decode of discriminant 3 left %+v", en.name, v)
		}
	}
	for _, en := range choiceEngines {
		var v Choice
		if err := en.decode([]byte{0xf0, 0, 0, 0, 0xff, 0xff, 0xff, 0xfe}, &v); err != nil || v.Other != -2 || v.Sel != 0xf0000000 {
			t.Errorf("%s decode onto the default arm: %+v, %v", en.name, v, err)
		}
	}
}

// TestOptionalFlags: any nonzero flag means the data follows, as
// xdr_bool reads it; a set destination pointer keeps its pointee and is
// decoded over, and a zero flag clears it, on every rung.
func TestOptionalFlags(t *testing.T) {
	for _, flag := range []byte{1, 2, 0xff} {
		body := []byte{0, 0, 0, flag, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 6}
		for _, en := range optinnerEngines {
			kept := &Inner{P: 9}
			v := Optinner(kept)
			if err := en.decode(body, &v); err != nil {
				t.Fatalf("%s flag %d: %v", en.name, flag, err)
			}
			if (*Inner)(v) != kept || kept.P != 5 || kept.Q != 6 {
				t.Errorf("%s flag %d: pointer %p (kept %p) holding %+v", en.name, flag, v, kept, *kept)
			}
			var fresh Optinner
			if err := en.decode(body, &fresh); err != nil || fresh == nil || fresh.P != 5 {
				t.Errorf("%s flag %d into nil: %v, %v", en.name, flag, fresh, err)
			}
			if err := en.decode([]byte{0, 0, 0, 0}, &v); err != nil || v != nil {
				t.Errorf("%s zero flag: %v, %v", en.name, v, err)
			}
		}
	}
}

// TestCountedUnionMinWire: a counted array of unions or optional data
// checks its count against the element's smallest wire size — 4 bytes
// plus the smallest arm, 4 for the flag — before it allocates: a tv
// count of 2^20 with 4 MiB less 4 bytes behind it fails on every rung
// having allocated nothing proportional to the count.
func TestCountedUnionMinWire(t *testing.T) {
	body := make([]byte, 8+4<<20-4)
	binary.BigEndian.PutUint32(body[4:], 1<<20)
	for _, en := range unionsEngines {
		var err error
		got := testutil.AllocBytes(func() {
			var v Unions
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
