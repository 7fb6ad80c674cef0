// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package layout

import (
	"encoding/binary"
	"fmt"

	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// W5 is the IDL typedef w5.
type W5 string

// wireTypeW5 describes w5 on the wire; planW5 is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeW5 = wire.StringT(5)
	planW5     = wire.MustPlan[W5](wireTypeW5, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *W5) Marshal(x *xdr.XDR) error { return planW5.Marshal(x, v) }

// Inner is the IDL struct inner.
type Inner struct {
	P int32
	Q int64
}

// wireTypeInner describes inner on the wire; planInner is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeInner = wire.StructT("inner",
		wire.F("p", wire.Int32T()),
		wire.F("q", wire.HyperT()),
	)
	planInner = wire.MustPlan[Inner](wireTypeInner, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Inner) Marshal(x *xdr.XDR) error { return planInner.Marshal(x, v) }

// Nested is the IDL struct nested.
type Nested struct {
	A int32
	S Inner
}

// wireTypeNested describes nested on the wire; planNested is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeNested = wire.StructT("nested",
		wire.F("a", wire.Int32T()),
		wire.F("s", wireTypeInner),
	)
	planNested = wire.MustPlan[Nested](wireTypeNested, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Nested) Marshal(x *xdr.XDR) error { return planNested.Marshal(x, v) }

// Named is the IDL struct named.
type Named struct {
	Nm string
	K  int32
}

// wireTypeNamed describes named on the wire; planNamed is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeNamed = wire.StructT("named",
		wire.F("nm", wire.StringT(8)),
		wire.F("k", wire.Int32T()),
	)
	planNamed = wire.MustPlan[Named](wireTypeNamed, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Named) Marshal(x *xdr.XDR) error { return planNamed.Marshal(x, v) }

// Arrays is the IDL struct arrays.
type Arrays struct {
	Hs    [6]int64
	Ds    []float64
	Us    [3]uint64
	Hv    []int64
	Ins   [5]Inner
	Flags [6]bool
	Sw    [2]W5
	Ns    []Named
	Nf    [2]Nested
	Nv    []Nested
}

// wireTypeArrays describes arrays on the wire; planArrays is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeArrays = wire.StructT("arrays",
		wire.F("hs", wire.FixedArrayT(6, wire.HyperT())),
		wire.F("ds", wire.VarArrayT(8, wire.Float64T())),
		wire.F("us", wire.FixedArrayT(3, wire.UhyperT())),
		wire.F("hv", wire.VarArrayT(0, wire.HyperT())),
		wire.F("ins", wire.FixedArrayT(5, wireTypeInner)),
		wire.F("flags", wire.FixedArrayT(6, wire.BoolT())),
		wire.F("sw", wire.FixedArrayT(2, wireTypeW5)),
		wire.F("ns", wire.VarArrayT(4, wireTypeNamed)),
		wire.F("nf", wire.FixedArrayT(2, wireTypeNested)),
		wire.F("nv", wire.VarArrayT(3, wireTypeNested)),
	)
	planArrays = wire.MustPlan[Arrays](wireTypeArrays, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Arrays) Marshal(x *xdr.XDR) error { return planArrays.Marshal(x, v) }

// Many is the IDL struct many.
type Many struct {
	Ns []Nested
}

// wireTypeMany describes many on the wire; planMany is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeMany = wire.StructT("many",
		wire.F("ns", wire.VarArrayT(0, wireTypeNested)),
	)
	planMany = wire.MustPlan[Many](wireTypeMany, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Many) Marshal(x *xdr.XDR) error { return planMany.Marshal(x, v) }

// Names is the IDL struct names.
type Names struct {
	V []Named
}

// wireTypeNames describes names on the wire; planNames is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeNames = wire.StructT("names",
		wire.F("v", wire.VarArrayT(0, wireTypeNamed)),
	)
	planNames = wire.MustPlan[Names](wireTypeNames, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Names) Marshal(x *xdr.XDR) error { return planNames.Marshal(x, v) }

// compiledAppendW5 is the rpcgen-emitted straight-line encoder for W5:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendW5(bs *xdr.BufStream, hdr []byte, xid uint32, v *W5) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v))) > 5 {
		return xdr.ErrTooBig
	}
	n2 := len((*v))
	p3 := xdr.Pad(n2)
	w4 := bs.Extend(4 + n2 + p3)
	binary.BigEndian.PutUint32(w4, uint32(n2))
	copy(w4[4:], string((*v)))
	for z5 := 4 + n2; z5 < 4+n2+p3; z5++ {
		w4[z5] = 0
	}
	return nil
}

// compiledDecodeW5 is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeW5(body []byte, v *W5) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u6 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u6 > 5 {
		return xdr.ErrTooBig
	}
	n7 := int(u6)
	p8 := xdr.Pad(n7)
	if n7+p8 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v) = W5(body[pos : pos+n7])
	pos += n7 + p8
	return nil
}

func init() {
	wire.RegisterCompiled(planW5, wire.Compiled[W5]{Append: compiledAppendW5, Decode: compiledDecodeW5})
}

// compiledAppendInner is the rpcgen-emitted straight-line encoder for Inner:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendInner(bs *xdr.BufStream, hdr []byte, xid uint32, v *Inner) error {
	w2 := bs.Extend(len(hdr) + 12)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).P))
	binary.BigEndian.PutUint64(b1[4:], uint64((*v).Q))
	return nil
}

// compiledDecodeInner is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeInner(body []byte, v *Inner) error {
	if len(body) < 12 {
		return xdr.ErrOverflow
	}
	(*v).P = int32(binary.BigEndian.Uint32(body[0:]))
	(*v).Q = int64(binary.BigEndian.Uint64(body[4:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planInner, wire.Compiled[Inner]{Append: compiledAppendInner, Decode: compiledDecodeInner})
}

// compiledAppendNested is the rpcgen-emitted straight-line encoder for Nested:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendNested(bs *xdr.BufStream, hdr []byte, xid uint32, v *Nested) error {
	w2 := bs.Extend(len(hdr) + 16)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).A))
	binary.BigEndian.PutUint32(b1[4:], uint32((*v).S.P))
	binary.BigEndian.PutUint64(b1[8:], uint64((*v).S.Q))
	return nil
}

// compiledDecodeNested is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeNested(body []byte, v *Nested) error {
	if len(body) < 16 {
		return xdr.ErrOverflow
	}
	(*v).A = int32(binary.BigEndian.Uint32(body[0:]))
	(*v).S.P = int32(binary.BigEndian.Uint32(body[4:]))
	(*v).S.Q = int64(binary.BigEndian.Uint64(body[8:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planNested, wire.Compiled[Nested]{Append: compiledAppendNested, Decode: compiledDecodeNested})
}

// compiledAppendNamed is the rpcgen-emitted straight-line encoder for Named:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendNamed(bs *xdr.BufStream, hdr []byte, xid uint32, v *Named) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v).Nm)) > 8 {
		return xdr.ErrTooBig
	}
	n2 := len((*v).Nm)
	p3 := xdr.Pad(n2)
	w4 := bs.Extend(4 + n2 + p3)
	binary.BigEndian.PutUint32(w4, uint32(n2))
	copy(w4[4:], (*v).Nm)
	for z5 := 4 + n2; z5 < 4+n2+p3; z5++ {
		w4[z5] = 0
	}
	b6 := bs.Extend(4)
	binary.BigEndian.PutUint32(b6[0:], uint32((*v).K))
	return nil
}

// compiledDecodeNamed is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeNamed(body []byte, v *Named) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u7 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u7 > 8 {
		return xdr.ErrTooBig
	}
	n8 := int(u7)
	p9 := xdr.Pad(n8)
	if n8+p9 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v).Nm = string(body[pos : pos+n8])
	pos += n8 + p9
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	(*v).K = int32(binary.BigEndian.Uint32(body[pos:]))
	pos += 4
	return nil
}

func init() {
	wire.RegisterCompiled(planNamed, wire.Compiled[Named]{Append: compiledAppendNamed, Decode: compiledDecodeNamed})
}

// compiledAppendArrays is the rpcgen-emitted straight-line encoder for Arrays:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendArrays(bs *xdr.BufStream, hdr []byte, xid uint32, v *Arrays) error {
	w2 := bs.Extend(len(hdr) + 48)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	wire.PutUnits64(b1[0:48], (*v).Hs[:])
	s3 := (*v).Ds
	if uint32(len(s3)) > 8 {
		return xdr.ErrTooBig
	}
	n4 := len(s3)
	w5 := bs.Extend(4 + n4*8)
	binary.BigEndian.PutUint32(w5, uint32(n4))
	wire.PutUnits64(w5[4:], s3)
	b6 := bs.Extend(24)
	binary.BigEndian.PutUint64(b6[0:], uint64((*v).Us[0]))
	binary.BigEndian.PutUint64(b6[8:], uint64((*v).Us[1]))
	binary.BigEndian.PutUint64(b6[16:], uint64((*v).Us[2]))
	s7 := (*v).Hv
	n8 := len(s7)
	w9 := bs.Extend(4 + n8*8)
	binary.BigEndian.PutUint32(w9, uint32(n8))
	wire.PutUnits64(w9[4:], s7)
	b10 := bs.Extend(84)
	for i11 := 0; i11 < 5; i11++ {
		binary.BigEndian.PutUint32(b10[0+i11*12:], uint32((*v).Ins[i11].P))
		binary.BigEndian.PutUint64(b10[0+i11*12+4:], uint64((*v).Ins[i11].Q))
	}
	for i12 := 0; i12 < 6; i12++ {
		if (*v).Flags[i12] {
			binary.BigEndian.PutUint32(b10[60+i12*4:], 1)
		} else {
			binary.BigEndian.PutUint32(b10[60+i12*4:], 0)
		}
	}
	for i13 := 0; i13 < 2; i13++ {
		if uint32(len((*v).Sw[i13])) > 5 {
			return xdr.ErrTooBig
		}
		n14 := len((*v).Sw[i13])
		p15 := xdr.Pad(n14)
		w16 := bs.Extend(4 + n14 + p15)
		binary.BigEndian.PutUint32(w16, uint32(n14))
		copy(w16[4:], string((*v).Sw[i13]))
		for z17 := 4 + n14; z17 < 4+n14+p15; z17++ {
			w16[z17] = 0
		}
	}
	s18 := (*v).Ns
	if uint32(len(s18)) > 4 {
		return xdr.ErrTooBig
	}
	n19 := len(s18)
	binary.BigEndian.PutUint32(bs.Extend(4), uint32(n19))
	for i20 := range s18 {
		if uint32(len(s18[i20].Nm)) > 8 {
			return xdr.ErrTooBig
		}
		n21 := len(s18[i20].Nm)
		p22 := xdr.Pad(n21)
		w23 := bs.Extend(4 + n21 + p22)
		binary.BigEndian.PutUint32(w23, uint32(n21))
		copy(w23[4:], s18[i20].Nm)
		for z24 := 4 + n21; z24 < 4+n21+p22; z24++ {
			w23[z24] = 0
		}
		b25 := bs.Extend(4)
		binary.BigEndian.PutUint32(b25[0:], uint32(s18[i20].K))
	}
	b26 := bs.Extend(32)
	binary.BigEndian.PutUint32(b26[0:], uint32((*v).Nf[0].A))
	binary.BigEndian.PutUint32(b26[4:], uint32((*v).Nf[0].S.P))
	binary.BigEndian.PutUint64(b26[8:], uint64((*v).Nf[0].S.Q))
	binary.BigEndian.PutUint32(b26[16:], uint32((*v).Nf[1].A))
	binary.BigEndian.PutUint32(b26[20:], uint32((*v).Nf[1].S.P))
	binary.BigEndian.PutUint64(b26[24:], uint64((*v).Nf[1].S.Q))
	s27 := (*v).Nv
	if uint32(len(s27)) > 3 {
		return xdr.ErrTooBig
	}
	n28 := len(s27)
	w29 := bs.Extend(4 + n28*16)
	binary.BigEndian.PutUint32(w29, uint32(n28))
	o30 := w29[4:]
	for i31 := range s27 {
		binary.BigEndian.PutUint32(o30[0:], uint32(s27[i31].A))
		binary.BigEndian.PutUint32(o30[4:], uint32(s27[i31].S.P))
		binary.BigEndian.PutUint64(o30[8:], uint64(s27[i31].S.Q))
		o30 = o30[16:]
	}
	return nil
}

// compiledDecodeArrays is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeArrays(body []byte, v *Arrays) error {
	if len(body) < 48 {
		return xdr.ErrOverflow
	}
	wire.GetUnits64((*v).Hs[:], body[0:48])
	pos := 48
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u32 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u32 > 8 {
		return xdr.ErrTooBig
	}
	n33 := int(u32)
	if int64(n33)*8 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n33 <= cap((*v).Ds) {
		(*v).Ds = (*v).Ds[:n33]
	} else {
		(*v).Ds = make([]float64, n33)
	}
	wire.GetUnits64((*v).Ds, body[pos:])
	pos += n33 * 8
	if pos+24 > len(body) {
		return xdr.ErrOverflow
	}
	(*v).Us[0] = uint64(binary.BigEndian.Uint64(body[pos:]))
	(*v).Us[1] = uint64(binary.BigEndian.Uint64(body[pos+8:]))
	(*v).Us[2] = uint64(binary.BigEndian.Uint64(body[pos+16:]))
	pos += 24
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u34 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n35 := int(u34)
	if n35 < 0 {
		return xdr.ErrOverflow
	}
	if int64(n35)*8 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n35 <= cap((*v).Hv) {
		(*v).Hv = (*v).Hv[:n35]
	} else {
		(*v).Hv = make([]int64, n35)
	}
	wire.GetUnits64((*v).Hv, body[pos:])
	pos += n35 * 8
	if pos+84 > len(body) {
		return xdr.ErrOverflow
	}
	for i36 := 0; i36 < 5; i36++ {
		(*v).Ins[i36].P = int32(binary.BigEndian.Uint32(body[pos+i36*12:]))
		(*v).Ins[i36].Q = int64(binary.BigEndian.Uint64(body[pos+i36*12+4:]))
	}
	for i37 := 0; i37 < 6; i37++ {
		(*v).Flags[i37] = binary.BigEndian.Uint32(body[pos+60+i37*4:]) != 0
	}
	pos += 84
	for i38 := 0; i38 < 2; i38++ {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u39 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u39 > 5 {
			return xdr.ErrTooBig
		}
		n40 := int(u39)
		p41 := xdr.Pad(n40)
		if n40+p41 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*v).Sw[i38] = W5(body[pos : pos+n40])
		pos += n40 + p41
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u42 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u42 > 4 {
		return xdr.ErrTooBig
	}
	n43 := int(u42)
	if int64(n43)*8 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n43 <= cap((*v).Ns) {
		(*v).Ns = (*v).Ns[:n43]
	} else {
		(*v).Ns = make([]Named, n43)
	}
	s44 := (*v).Ns
	for i45 := range s44 {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u46 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u46 > 8 {
			return xdr.ErrTooBig
		}
		n47 := int(u46)
		p48 := xdr.Pad(n47)
		if n47+p48 > len(body)-pos {
			return xdr.ErrOverflow
		}
		s44[i45].Nm = string(body[pos : pos+n47])
		pos += n47 + p48
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		s44[i45].K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	if pos+32 > len(body) {
		return xdr.ErrOverflow
	}
	(*v).Nf[0].A = int32(binary.BigEndian.Uint32(body[pos:]))
	(*v).Nf[0].S.P = int32(binary.BigEndian.Uint32(body[pos+4:]))
	(*v).Nf[0].S.Q = int64(binary.BigEndian.Uint64(body[pos+8:]))
	(*v).Nf[1].A = int32(binary.BigEndian.Uint32(body[pos+16:]))
	(*v).Nf[1].S.P = int32(binary.BigEndian.Uint32(body[pos+20:]))
	(*v).Nf[1].S.Q = int64(binary.BigEndian.Uint64(body[pos+24:]))
	pos += 32
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u49 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u49 > 3 {
		return xdr.ErrTooBig
	}
	n50 := int(u49)
	if int64(n50)*16 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n50 <= cap((*v).Nv) {
		(*v).Nv = (*v).Nv[:n50]
	} else {
		(*v).Nv = make([]Nested, n50)
	}
	s51 := (*v).Nv
	b52 := body[pos:]
	for i53 := range s51 {
		s51[i53].A = int32(binary.BigEndian.Uint32(b52[0:]))
		s51[i53].S.P = int32(binary.BigEndian.Uint32(b52[4:]))
		s51[i53].S.Q = int64(binary.BigEndian.Uint64(b52[8:]))
		b52 = b52[16:]
	}
	pos += n50 * 16
	return nil
}

func init() {
	wire.RegisterCompiled(planArrays, wire.Compiled[Arrays]{Append: compiledAppendArrays, Decode: compiledDecodeArrays})
}

// compiledAppendMany is the rpcgen-emitted straight-line encoder for Many:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendMany(bs *xdr.BufStream, hdr []byte, xid uint32, v *Many) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s2 := (*v).Ns
	n3 := len(s2)
	w4 := bs.Extend(4 + n3*16)
	binary.BigEndian.PutUint32(w4, uint32(n3))
	o5 := w4[4:]
	for i6 := range s2 {
		binary.BigEndian.PutUint32(o5[0:], uint32(s2[i6].A))
		binary.BigEndian.PutUint32(o5[4:], uint32(s2[i6].S.P))
		binary.BigEndian.PutUint64(o5[8:], uint64(s2[i6].S.Q))
		o5 = o5[16:]
	}
	return nil
}

// compiledDecodeMany is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeMany(body []byte, v *Many) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u7 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n8 := int(u7)
	if n8 < 0 {
		return xdr.ErrOverflow
	}
	if int64(n8)*16 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n8 <= cap((*v).Ns) {
		(*v).Ns = (*v).Ns[:n8]
	} else {
		(*v).Ns = make([]Nested, n8)
	}
	s9 := (*v).Ns
	b10 := body[pos:]
	for i11 := range s9 {
		s9[i11].A = int32(binary.BigEndian.Uint32(b10[0:]))
		s9[i11].S.P = int32(binary.BigEndian.Uint32(b10[4:]))
		s9[i11].S.Q = int64(binary.BigEndian.Uint64(b10[8:]))
		b10 = b10[16:]
	}
	pos += n8 * 16
	return nil
}

func init() {
	wire.RegisterCompiled(planMany, wire.Compiled[Many]{Append: compiledAppendMany, Decode: compiledDecodeMany})
}

// compiledAppendNames is the rpcgen-emitted straight-line encoder for Names:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendNames(bs *xdr.BufStream, hdr []byte, xid uint32, v *Names) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s2 := (*v).V
	n3 := len(s2)
	binary.BigEndian.PutUint32(bs.Extend(4), uint32(n3))
	for i4 := range s2 {
		if uint32(len(s2[i4].Nm)) > 8 {
			return xdr.ErrTooBig
		}
		n5 := len(s2[i4].Nm)
		p6 := xdr.Pad(n5)
		w7 := bs.Extend(4 + n5 + p6)
		binary.BigEndian.PutUint32(w7, uint32(n5))
		copy(w7[4:], s2[i4].Nm)
		for z8 := 4 + n5; z8 < 4+n5+p6; z8++ {
			w7[z8] = 0
		}
		b9 := bs.Extend(4)
		binary.BigEndian.PutUint32(b9[0:], uint32(s2[i4].K))
	}
	return nil
}

// compiledDecodeNames is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeNames(body []byte, v *Names) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u10 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n11 := int(u10)
	if n11 < 0 {
		return xdr.ErrOverflow
	}
	if int64(n11)*8 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n11 <= cap((*v).V) {
		(*v).V = (*v).V[:n11]
	} else {
		(*v).V = make([]Named, n11)
	}
	s12 := (*v).V
	for i13 := range s12 {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u14 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u14 > 8 {
			return xdr.ErrTooBig
		}
		n15 := int(u14)
		p16 := xdr.Pad(n15)
		if n15+p16 > len(body)-pos {
			return xdr.ErrOverflow
		}
		s12[i13].Nm = string(body[pos : pos+n15])
		pos += n15 + p16
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		s12[i13].K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	return nil
}

func init() {
	wire.RegisterCompiled(planNames, wire.Compiled[Names]{Append: compiledAppendNames, Decode: compiledDecodeNames})
}
