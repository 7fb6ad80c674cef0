// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package layout

import (
	"encoding/binary"
	"fmt"

	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// Tint is the IDL enum tint.
type Tint int32

// Tint values.
const (
	TRED   Tint = 1
	TGREEN Tint = 2
	TBLUE  Tint = 7
)

// Marshal encodes or decodes the enum.
func (v *Tint) Marshal(x *xdr.XDR) error {
	e := int32(*v)
	if err := x.Enum(&e); err != nil {
		return err
	}
	*v = Tint(e)
	return nil
}

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

// Optinner is the IDL typedef optinner.
type Optinner *Inner

// wireTypeOptinner describes optinner on the wire; planOptinner is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeOptinner = wire.OptionalT(wireTypeInner)
	planOptinner     = wire.MustPlan[Optinner](wireTypeOptinner, wire.Specialized)
)

// Groups is the IDL typedef groups.
type Groups *Groupnode

// wireTypeGroups describes groups on the wire; planGroups is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeGroups = wire.OptionalT(wireTypeGroupnode)
	planGroups     = wire.MustPlan[Groups](wireTypeGroups, wire.Specialized)
)

// Exports is the IDL typedef exports.
type Exports *Exportnode

// wireTypeExports describes exports on the wire; planExports is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeExports = wire.OptionalT(wireTypeExportnode)
	planExports     = wire.MustPlan[Exports](wireTypeExports, wire.Specialized)
)

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

// Unions is the IDL struct unions.
type Unions struct {
	C    Choice
	Tv   []Tinted
	Cf   [2]Choice
	Ov   []Optinner
	Of   [3]Optinner
	On   *Named
	Tail int32
}

// wireTypeUnions describes unions on the wire; planUnions is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeUnions = wire.StructT("unions",
		wire.F("c", wireTypeChoice),
		wire.F("tv", wire.VarArrayT(0, wireTypeTinted)),
		wire.F("cf", wire.FixedArrayT(2, wireTypeChoice)),
		wire.F("ov", wire.VarArrayT(5, wireTypeOptinner)),
		wire.F("of", wire.FixedArrayT(3, wireTypeOptinner)),
		wire.F("on", wire.OptionalT(wireTypeNamed)),
		wire.F("tail", wire.Int32T()),
	)
	planUnions = wire.MustPlan[Unions](wireTypeUnions, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Unions) Marshal(x *xdr.XDR) error { return planUnions.Marshal(x, v) }

// Intlist is the IDL struct intlist.
type Intlist struct {
	V    int32
	Next *Intlist
}

// wireTypeIntlist describes intlist on the wire; planIntlist is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeIntlist = wire.ListT("intlist", "next",
		wire.F("v", wire.Int32T()),
	)
	planIntlist = wire.MustPlan[Intlist](wireTypeIntlist, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Intlist) Marshal(x *xdr.XDR) error { return planIntlist.Marshal(x, v) }

// Groupnode is the IDL struct groupnode.
type Groupnode struct {
	GrName string
	GrNext Groups
}

// wireTypeGroupnode describes groupnode on the wire; planGroupnode is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeGroupnode = wire.ListT("groupnode", "gr_next",
		wire.F("gr_name", wire.StringT(8)),
	)
	planGroupnode = wire.MustPlan[Groupnode](wireTypeGroupnode, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Groupnode) Marshal(x *xdr.XDR) error { return planGroupnode.Marshal(x, v) }

// Exportnode is the IDL struct exportnode.
type Exportnode struct {
	ExDir    string
	ExGroups Groups
	ExNext   Exports
}

// wireTypeExportnode describes exportnode on the wire; planExportnode is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeExportnode = wire.ListT("exportnode", "ex_next",
		wire.F("ex_dir", wire.StringT(16)),
		wire.F("ex_groups", wireTypeGroups),
	)
	planExportnode = wire.MustPlan[Exportnode](wireTypeExportnode, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Exportnode) Marshal(x *xdr.XDR) error { return planExportnode.Marshal(x, v) }

// Choice is the IDL union choice; exactly the arm selected by Sel is valid.
type Choice struct {
	Sel   uint32
	H     int64
	Nm    Named
	Other int32
}

// wireTypeChoice describes choice on the wire; planChoice is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeChoice = wire.UnionT("choice",
		wire.F("sel", wire.Uint32T()),
		wire.Case("", nil, 0),
		wire.Case("h", wire.HyperT(), 1, 4000000000),
		wire.Case("nm", wireTypeNamed, 2),
		wire.Default("other", wire.Int32T()),
	)
	planChoice = wire.MustPlan[Choice](wireTypeChoice, wire.Specialized)
)

// Marshal encodes or decodes the union through its compiled wire plan.
func (v *Choice) Marshal(x *xdr.XDR) error { return planChoice.Marshal(x, v) }

// Tinted is the IDL union tinted; exactly the arm selected by T is valid.
type Tinted struct {
	T   Tint
	S   string
	Inr Inner
}

// wireTypeTinted describes tinted on the wire; planTinted is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeTinted = wire.UnionT("tinted",
		wire.F("t", wire.Int32T()),
		wire.Case("s", wire.StringT(8), 1),
		wire.Case("", nil, 2),
		wire.Case("inr", wireTypeInner, 7),
	)
	planTinted = wire.MustPlan[Tinted](wireTypeTinted, wire.Specialized)
)

// Marshal encodes or decodes the union through its compiled wire plan.
func (v *Tinted) Marshal(x *xdr.XDR) error { return planTinted.Marshal(x, v) }

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

// compiledAppendOptinner is the rpcgen-emitted straight-line encoder for Optinner:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendOptinner(bs *xdr.BufStream, hdr []byte, xid uint32, v *Optinner) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if p2 := (*v); p2 != nil {
		b3 := bs.Extend(16)
		binary.BigEndian.PutUint32(b3, 1)
		binary.BigEndian.PutUint32(b3[4:], uint32((*p2).P))
		binary.BigEndian.PutUint64(b3[8:], uint64((*p2).Q))
	} else {
		binary.BigEndian.PutUint32(bs.Extend(4), 0)
	}
	return nil
}

// compiledDecodeOptinner is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeOptinner(body []byte, v *Optinner) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	f4 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if f4 == 0 {
		(*v) = nil
	} else {
		p5 := (*v)
		if p5 == nil {
			p5 = new(Inner)
			(*v) = p5
		}
		if pos+12 > len(body) {
			return xdr.ErrOverflow
		}
		(*p5).P = int32(binary.BigEndian.Uint32(body[pos:]))
		(*p5).Q = int64(binary.BigEndian.Uint64(body[pos+4:]))
		pos += 12
	}
	return nil
}

func init() {
	wire.RegisterCompiled(planOptinner, wire.Compiled[Optinner]{Append: compiledAppendOptinner, Decode: compiledDecodeOptinner})
}

// compiledAppendGroups is the rpcgen-emitted straight-line encoder for Groups:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendGroups(bs *xdr.BufStream, hdr []byte, xid uint32, v *Groups) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s3 := (*v)
	for p2, k4 := s3, 0; p2 != nil; p2, k4 = (*p2).GrNext, k4+1 {
		if k4 > 0 {
			if k4&1 == 0 {
				s3 = (*s3).GrNext
			}
			if p2 == s3 {
				return xdr.ErrCycle
			}
		}
		b5 := bs.Extend(4)
		binary.BigEndian.PutUint32(b5, 1)
		if uint32(len((*p2).GrName)) > 8 {
			return xdr.ErrTooBig
		}
		n6 := len((*p2).GrName)
		p7 := xdr.Pad(n6)
		w8 := bs.Extend(4 + n6 + p7)
		binary.BigEndian.PutUint32(w8, uint32(n6))
		copy(w8[4:], (*p2).GrName)
		for z9 := 4 + n6; z9 < 4+n6+p7; z9++ {
			w8[z9] = 0
		}
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	return nil
}

// compiledDecodeGroups is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabGroups computes.
func compiledDecodeGroups(body []byte, v *Groups) error {
	slab := wire.NewSlab(compiledSlabGroups(body, v))
	pos := 0
	l10 := &(*v)
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f12 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f12 == 0 {
			*l10 = nil
			break
		}
		if len(body)-pos < 8 {
			return xdr.ErrOverflow
		}
		p11 := *l10
		if p11 == nil {
			p11 = new(Groupnode)
			*l10 = p11
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u13 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u13 > 8 {
			return xdr.ErrTooBig
		}
		n14 := int(u13)
		p15 := xdr.Pad(n14)
		if n14+p15 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p11).GrName = slab.String(body[pos : pos+n14])
		pos += n14 + p15
		l10 = &(*p11).GrNext
	}
	return nil
}

// compiledSlabGroups is compiledDecodeGroups's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabGroups(body []byte, v *Groups) int {
	size := 0
	pos := 0
	for {
		if pos+4 > len(body) {
			return 0
		}
		f16 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f16 == 0 {
			break
		}
		if len(body)-pos < 8 {
			return 0
		}
		if pos+4 > len(body) {
			return 0
		}
		u17 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u17 > 8 {
			return 0
		}
		n18 := int(u17)
		p19 := xdr.Pad(n18)
		if n18+p19 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n18)
		pos += n18 + p19
	}
	return size
}

func init() {
	wire.RegisterCompiled(planGroups, wire.Compiled[Groups]{Append: compiledAppendGroups, Decode: compiledDecodeGroups})
}

// compiledAppendExports is the rpcgen-emitted straight-line encoder for Exports:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendExports(bs *xdr.BufStream, hdr []byte, xid uint32, v *Exports) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s3 := (*v)
	for p2, k4 := s3, 0; p2 != nil; p2, k4 = (*p2).ExNext, k4+1 {
		if k4 > 0 {
			if k4&1 == 0 {
				s3 = (*s3).ExNext
			}
			if p2 == s3 {
				return xdr.ErrCycle
			}
		}
		b5 := bs.Extend(4)
		binary.BigEndian.PutUint32(b5, 1)
		if uint32(len((*p2).ExDir)) > 16 {
			return xdr.ErrTooBig
		}
		n6 := len((*p2).ExDir)
		p7 := xdr.Pad(n6)
		w8 := bs.Extend(4 + n6 + p7)
		binary.BigEndian.PutUint32(w8, uint32(n6))
		copy(w8[4:], (*p2).ExDir)
		for z9 := 4 + n6; z9 < 4+n6+p7; z9++ {
			w8[z9] = 0
		}
		s11 := (*p2).ExGroups
		for p10, k12 := s11, 0; p10 != nil; p10, k12 = (*p10).GrNext, k12+1 {
			if k12 > 0 {
				if k12&1 == 0 {
					s11 = (*s11).GrNext
				}
				if p10 == s11 {
					return xdr.ErrCycle
				}
			}
			b13 := bs.Extend(4)
			binary.BigEndian.PutUint32(b13, 1)
			if uint32(len((*p10).GrName)) > 8 {
				return xdr.ErrTooBig
			}
			n14 := len((*p10).GrName)
			p15 := xdr.Pad(n14)
			w16 := bs.Extend(4 + n14 + p15)
			binary.BigEndian.PutUint32(w16, uint32(n14))
			copy(w16[4:], (*p10).GrName)
			for z17 := 4 + n14; z17 < 4+n14+p15; z17++ {
				w16[z17] = 0
			}
		}
		binary.BigEndian.PutUint32(bs.Extend(4), 0)
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	return nil
}

// compiledDecodeExports is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabExports computes.
func compiledDecodeExports(body []byte, v *Exports) error {
	slab := wire.NewSlab(compiledSlabExports(body, v))
	pos := 0
	l18 := &(*v)
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f20 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f20 == 0 {
			*l18 = nil
			break
		}
		if len(body)-pos < 12 {
			return xdr.ErrOverflow
		}
		p19 := *l18
		if p19 == nil {
			p19 = new(Exportnode)
			*l18 = p19
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u21 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u21 > 16 {
			return xdr.ErrTooBig
		}
		n22 := int(u21)
		p23 := xdr.Pad(n22)
		if n22+p23 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p19).ExDir = slab.String(body[pos : pos+n22])
		pos += n22 + p23
		l24 := &(*p19).ExGroups
		for {
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			f26 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if f26 == 0 {
				*l24 = nil
				break
			}
			if len(body)-pos < 8 {
				return xdr.ErrOverflow
			}
			p25 := *l24
			if p25 == nil {
				p25 = new(Groupnode)
				*l24 = p25
			}
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			u27 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u27 > 8 {
				return xdr.ErrTooBig
			}
			n28 := int(u27)
			p29 := xdr.Pad(n28)
			if n28+p29 > len(body)-pos {
				return xdr.ErrOverflow
			}
			(*p25).GrName = slab.String(body[pos : pos+n28])
			pos += n28 + p29
			l24 = &(*p25).GrNext
		}
		l18 = &(*p19).ExNext
	}
	return nil
}

// compiledSlabExports is compiledDecodeExports's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabExports(body []byte, v *Exports) int {
	size := 0
	pos := 0
	for {
		if pos+4 > len(body) {
			return 0
		}
		f30 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f30 == 0 {
			break
		}
		if len(body)-pos < 12 {
			return 0
		}
		if pos+4 > len(body) {
			return 0
		}
		u31 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u31 > 16 {
			return 0
		}
		n32 := int(u31)
		p33 := xdr.Pad(n32)
		if n32+p33 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n32)
		pos += n32 + p33
		for {
			if pos+4 > len(body) {
				return 0
			}
			f34 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if f34 == 0 {
				break
			}
			if len(body)-pos < 8 {
				return 0
			}
			if pos+4 > len(body) {
				return 0
			}
			u35 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u35 > 8 {
				return 0
			}
			n36 := int(u35)
			p37 := xdr.Pad(n36)
			if n36+p37 > len(body)-pos {
				return 0
			}
			size = wire.SlabRoom[byte](size, n36)
			pos += n36 + p37
		}
	}
	return size
}

func init() {
	wire.RegisterCompiled(planExports, wire.Compiled[Exports]{Append: compiledAppendExports, Decode: compiledDecodeExports})
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
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabArrays computes.
func compiledDecodeArrays(body []byte, v *Arrays) error {
	slab := wire.NewSlab(compiledSlabArrays(body, v))
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
		(*v).Ds = wire.Carve[float64](&slab, n33)
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
		(*v).Hv = wire.Carve[int64](&slab, n35)
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
		(*v).Sw[i38] = W5(slab.String(body[pos : pos+n40]))
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
		s44[i45].Nm = slab.String(body[pos : pos+n47])
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
		(*v).Nv = wire.Carve[Nested](&slab, n50)
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

// compiledSlabArrays is compiledDecodeArrays's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabArrays(body []byte, v *Arrays) int {
	size := 0
	if len(body) < 48 {
		return 0
	}
	pos := 48
	if pos+4 > len(body) {
		return 0
	}
	u54 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u54 > 8 {
		return 0
	}
	n55 := int(u54)
	if int64(n55)*8 > int64(len(body)-pos) {
		return 0
	}
	if n55 > cap((*v).Ds) {
		size = wire.SlabRoom[float64](size, n55)
	}
	pos += n55 * 8
	if pos+24 > len(body) {
		return 0
	}
	pos += 24
	if pos+4 > len(body) {
		return 0
	}
	u56 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n57 := int(u56)
	if n57 < 0 {
		return 0
	}
	if int64(n57)*8 > int64(len(body)-pos) {
		return 0
	}
	if n57 > cap((*v).Hv) {
		size = wire.SlabRoom[int64](size, n57)
	}
	pos += n57 * 8
	if pos+84 > len(body) {
		return 0
	}
	pos += 84
	for i58 := 0; i58 < 2; i58++ {
		if pos+4 > len(body) {
			return 0
		}
		u59 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u59 > 5 {
			return 0
		}
		n60 := int(u59)
		p61 := xdr.Pad(n60)
		if n60+p61 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n60)
		pos += n60 + p61
	}
	if pos+4 > len(body) {
		return 0
	}
	u62 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u62 > 4 {
		return 0
	}
	n63 := int(u62)
	if int64(n63)*8 > int64(len(body)-pos) {
		return 0
	}
	for i64 := 0; i64 < n63; i64++ {
		if pos+4 > len(body) {
			return 0
		}
		u65 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u65 > 8 {
			return 0
		}
		n66 := int(u65)
		p67 := xdr.Pad(n66)
		if n66+p67 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n66)
		pos += n66 + p67
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	}
	if pos+32 > len(body) {
		return 0
	}
	pos += 32
	if pos+4 > len(body) {
		return 0
	}
	u68 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u68 > 3 {
		return 0
	}
	n69 := int(u68)
	if int64(n69)*16 > int64(len(body)-pos) {
		return 0
	}
	if n69 > cap((*v).Nv) {
		size = wire.SlabRoom[Nested](size, n69)
	}
	pos += n69 * 16
	return size
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
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabNames computes.
func compiledDecodeNames(body []byte, v *Names) error {
	slab := wire.NewSlab(compiledSlabNames(body, v))
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
		s12[i13].Nm = slab.String(body[pos : pos+n15])
		pos += n15 + p16
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		s12[i13].K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	return nil
}

// compiledSlabNames is compiledDecodeNames's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabNames(body []byte, v *Names) int {
	size := 0
	pos := 0
	if pos+4 > len(body) {
		return 0
	}
	u17 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n18 := int(u17)
	if n18 < 0 {
		return 0
	}
	if int64(n18)*8 > int64(len(body)-pos) {
		return 0
	}
	for i19 := 0; i19 < n18; i19++ {
		if pos+4 > len(body) {
			return 0
		}
		u20 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u20 > 8 {
			return 0
		}
		n21 := int(u20)
		p22 := xdr.Pad(n21)
		if n21+p22 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n21)
		pos += n21 + p22
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	}
	return size
}

func init() {
	wire.RegisterCompiled(planNames, wire.Compiled[Names]{Append: compiledAppendNames, Decode: compiledDecodeNames})
}

// compiledAppendUnions is the rpcgen-emitted straight-line encoder for Unions:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendUnions(bs *xdr.BufStream, hdr []byte, xid uint32, v *Unions) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).C.Sel))
	switch (*v).C.Sel {
	case 0:
	case 1, 4000000000:
		b3 := bs.Extend(8)
		binary.BigEndian.PutUint64(b3[0:], uint64((*v).C.H))
	case 2:
		if uint32(len((*v).C.Nm.Nm)) > 8 {
			return xdr.ErrTooBig
		}
		n4 := len((*v).C.Nm.Nm)
		p5 := xdr.Pad(n4)
		w6 := bs.Extend(4 + n4 + p5)
		binary.BigEndian.PutUint32(w6, uint32(n4))
		copy(w6[4:], (*v).C.Nm.Nm)
		for z7 := 4 + n4; z7 < 4+n4+p5; z7++ {
			w6[z7] = 0
		}
		b8 := bs.Extend(4)
		binary.BigEndian.PutUint32(b8[0:], uint32((*v).C.Nm.K))
	default:
		b9 := bs.Extend(4)
		binary.BigEndian.PutUint32(b9[0:], uint32((*v).C.Other))
	}
	s10 := (*v).Tv
	n11 := len(s10)
	binary.BigEndian.PutUint32(bs.Extend(4), uint32(n11))
	for i12 := range s10 {
		b13 := bs.Extend(4)
		binary.BigEndian.PutUint32(b13[0:], uint32(s10[i12].T))
		switch s10[i12].T {
		case 1:
			if uint32(len(s10[i12].S)) > 8 {
				return xdr.ErrTooBig
			}
			n14 := len(s10[i12].S)
			p15 := xdr.Pad(n14)
			w16 := bs.Extend(4 + n14 + p15)
			binary.BigEndian.PutUint32(w16, uint32(n14))
			copy(w16[4:], s10[i12].S)
			for z17 := 4 + n14; z17 < 4+n14+p15; z17++ {
				w16[z17] = 0
			}
		case 2:
		case 7:
			b18 := bs.Extend(12)
			binary.BigEndian.PutUint32(b18[0:], uint32(s10[i12].Inr.P))
			binary.BigEndian.PutUint64(b18[4:], uint64(s10[i12].Inr.Q))
		default:
			return xdr.ErrBadUnion
		}
	}
	for i19 := 0; i19 < 2; i19++ {
		b20 := bs.Extend(4)
		binary.BigEndian.PutUint32(b20[0:], uint32((*v).Cf[i19].Sel))
		switch (*v).Cf[i19].Sel {
		case 0:
		case 1, 4000000000:
			b21 := bs.Extend(8)
			binary.BigEndian.PutUint64(b21[0:], uint64((*v).Cf[i19].H))
		case 2:
			if uint32(len((*v).Cf[i19].Nm.Nm)) > 8 {
				return xdr.ErrTooBig
			}
			n22 := len((*v).Cf[i19].Nm.Nm)
			p23 := xdr.Pad(n22)
			w24 := bs.Extend(4 + n22 + p23)
			binary.BigEndian.PutUint32(w24, uint32(n22))
			copy(w24[4:], (*v).Cf[i19].Nm.Nm)
			for z25 := 4 + n22; z25 < 4+n22+p23; z25++ {
				w24[z25] = 0
			}
			b26 := bs.Extend(4)
			binary.BigEndian.PutUint32(b26[0:], uint32((*v).Cf[i19].Nm.K))
		default:
			b27 := bs.Extend(4)
			binary.BigEndian.PutUint32(b27[0:], uint32((*v).Cf[i19].Other))
		}
	}
	s28 := (*v).Ov
	if uint32(len(s28)) > 5 {
		return xdr.ErrTooBig
	}
	n29 := len(s28)
	binary.BigEndian.PutUint32(bs.Extend(4), uint32(n29))
	for i30 := range s28 {
		if p31 := s28[i30]; p31 != nil {
			b32 := bs.Extend(16)
			binary.BigEndian.PutUint32(b32, 1)
			binary.BigEndian.PutUint32(b32[4:], uint32((*p31).P))
			binary.BigEndian.PutUint64(b32[8:], uint64((*p31).Q))
		} else {
			binary.BigEndian.PutUint32(bs.Extend(4), 0)
		}
	}
	for i33 := 0; i33 < 3; i33++ {
		if p34 := (*v).Of[i33]; p34 != nil {
			b35 := bs.Extend(16)
			binary.BigEndian.PutUint32(b35, 1)
			binary.BigEndian.PutUint32(b35[4:], uint32((*p34).P))
			binary.BigEndian.PutUint64(b35[8:], uint64((*p34).Q))
		} else {
			binary.BigEndian.PutUint32(bs.Extend(4), 0)
		}
	}
	if p36 := (*v).On; p36 != nil {
		b37 := bs.Extend(4)
		binary.BigEndian.PutUint32(b37, 1)
		if uint32(len((*p36).Nm)) > 8 {
			return xdr.ErrTooBig
		}
		n38 := len((*p36).Nm)
		p39 := xdr.Pad(n38)
		w40 := bs.Extend(4 + n38 + p39)
		binary.BigEndian.PutUint32(w40, uint32(n38))
		copy(w40[4:], (*p36).Nm)
		for z41 := 4 + n38; z41 < 4+n38+p39; z41++ {
			w40[z41] = 0
		}
		b42 := bs.Extend(4)
		binary.BigEndian.PutUint32(b42[0:], uint32((*p36).K))
	} else {
		binary.BigEndian.PutUint32(bs.Extend(4), 0)
	}
	b43 := bs.Extend(4)
	binary.BigEndian.PutUint32(b43[0:], uint32((*v).Tail))
	return nil
}

// compiledDecodeUnions is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabUnions computes.
func compiledDecodeUnions(body []byte, v *Unions) error {
	slab := wire.NewSlab(compiledSlabUnions(body, v))
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v).C.Sel = uint32(binary.BigEndian.Uint32(body[0:]))
	pos := 4
	switch (*v).C.Sel {
	case 0:
	case 1, 4000000000:
		if pos+8 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).C.H = int64(binary.BigEndian.Uint64(body[pos:]))
		pos += 8
	case 2:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u44 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u44 > 8 {
			return xdr.ErrTooBig
		}
		n45 := int(u44)
		p46 := xdr.Pad(n45)
		if n45+p46 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*v).C.Nm.Nm = slab.String(body[pos : pos+n45])
		pos += n45 + p46
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).C.Nm.K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	default:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).C.Other = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u47 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n48 := int(u47)
	if n48 < 0 {
		return xdr.ErrOverflow
	}
	if int64(n48)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n48 <= cap((*v).Tv) {
		(*v).Tv = (*v).Tv[:n48]
	} else {
		(*v).Tv = make([]Tinted, n48)
	}
	s49 := (*v).Tv
	for i50 := range s49 {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		s49[i50].T = Tint(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		switch s49[i50].T {
		case 1:
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			u51 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u51 > 8 {
				return xdr.ErrTooBig
			}
			n52 := int(u51)
			p53 := xdr.Pad(n52)
			if n52+p53 > len(body)-pos {
				return xdr.ErrOverflow
			}
			s49[i50].S = slab.String(body[pos : pos+n52])
			pos += n52 + p53
		case 2:
		case 7:
			if pos+12 > len(body) {
				return xdr.ErrOverflow
			}
			s49[i50].Inr.P = int32(binary.BigEndian.Uint32(body[pos:]))
			s49[i50].Inr.Q = int64(binary.BigEndian.Uint64(body[pos+4:]))
			pos += 12
		default:
			return xdr.ErrBadUnion
		}
	}
	for i54 := 0; i54 < 2; i54++ {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).Cf[i54].Sel = uint32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		switch (*v).Cf[i54].Sel {
		case 0:
		case 1, 4000000000:
			if pos+8 > len(body) {
				return xdr.ErrOverflow
			}
			(*v).Cf[i54].H = int64(binary.BigEndian.Uint64(body[pos:]))
			pos += 8
		case 2:
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			u55 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u55 > 8 {
				return xdr.ErrTooBig
			}
			n56 := int(u55)
			p57 := xdr.Pad(n56)
			if n56+p57 > len(body)-pos {
				return xdr.ErrOverflow
			}
			(*v).Cf[i54].Nm.Nm = slab.String(body[pos : pos+n56])
			pos += n56 + p57
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			(*v).Cf[i54].Nm.K = int32(binary.BigEndian.Uint32(body[pos:]))
			pos += 4
		default:
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			(*v).Cf[i54].Other = int32(binary.BigEndian.Uint32(body[pos:]))
			pos += 4
		}
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u58 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u58 > 5 {
		return xdr.ErrTooBig
	}
	n59 := int(u58)
	if int64(n59)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n59 <= cap((*v).Ov) {
		(*v).Ov = (*v).Ov[:n59]
	} else {
		(*v).Ov = make([]Optinner, n59)
	}
	s60 := (*v).Ov
	for i61 := range s60 {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f62 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f62 == 0 {
			s60[i61] = nil
		} else {
			p63 := s60[i61]
			if p63 == nil {
				p63 = wire.CarveNew[Inner](&slab)
				s60[i61] = p63
			}
			if pos+12 > len(body) {
				return xdr.ErrOverflow
			}
			(*p63).P = int32(binary.BigEndian.Uint32(body[pos:]))
			(*p63).Q = int64(binary.BigEndian.Uint64(body[pos+4:]))
			pos += 12
		}
	}
	for i64 := 0; i64 < 3; i64++ {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f65 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f65 == 0 {
			(*v).Of[i64] = nil
		} else {
			p66 := (*v).Of[i64]
			if p66 == nil {
				p66 = wire.CarveNew[Inner](&slab)
				(*v).Of[i64] = p66
			}
			if pos+12 > len(body) {
				return xdr.ErrOverflow
			}
			(*p66).P = int32(binary.BigEndian.Uint32(body[pos:]))
			(*p66).Q = int64(binary.BigEndian.Uint64(body[pos+4:]))
			pos += 12
		}
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	f67 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if f67 == 0 {
		(*v).On = nil
	} else {
		p68 := (*v).On
		if p68 == nil {
			p68 = new(Named)
			(*v).On = p68
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u69 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u69 > 8 {
			return xdr.ErrTooBig
		}
		n70 := int(u69)
		p71 := xdr.Pad(n70)
		if n70+p71 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p68).Nm = slab.String(body[pos : pos+n70])
		pos += n70 + p71
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*p68).K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	(*v).Tail = int32(binary.BigEndian.Uint32(body[pos:]))
	pos += 4
	return nil
}

// compiledSlabUnions is compiledDecodeUnions's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabUnions(body []byte, v *Unions) int {
	size := 0
	if len(body) < 4 {
		return 0
	}
	pos := 4
	switch binary.BigEndian.Uint32(body[pos-4:]) {
	case 0:
	case 1, 4000000000:
		if pos+8 > len(body) {
			return 0
		}
		pos += 8
	case 2:
		if pos+4 > len(body) {
			return 0
		}
		u72 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u72 > 8 {
			return 0
		}
		n73 := int(u72)
		p74 := xdr.Pad(n73)
		if n73+p74 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n73)
		pos += n73 + p74
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	default:
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	}
	if pos+4 > len(body) {
		return 0
	}
	u75 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n76 := int(u75)
	if n76 < 0 {
		return 0
	}
	if int64(n76)*4 > int64(len(body)-pos) {
		return 0
	}
	for i77 := 0; i77 < n76; i77++ {
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
		switch int32(binary.BigEndian.Uint32(body[pos-4:])) {
		case 1:
			if pos+4 > len(body) {
				return 0
			}
			u78 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u78 > 8 {
				return 0
			}
			n79 := int(u78)
			p80 := xdr.Pad(n79)
			if n79+p80 > len(body)-pos {
				return 0
			}
			size = wire.SlabRoom[byte](size, n79)
			pos += n79 + p80
		case 2:
		case 7:
			if pos+12 > len(body) {
				return 0
			}
			pos += 12
		default:
			return 0
		}
	}
	for i81 := 0; i81 < 2; i81++ {
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
		switch binary.BigEndian.Uint32(body[pos-4:]) {
		case 0:
		case 1, 4000000000:
			if pos+8 > len(body) {
				return 0
			}
			pos += 8
		case 2:
			if pos+4 > len(body) {
				return 0
			}
			u82 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u82 > 8 {
				return 0
			}
			n83 := int(u82)
			p84 := xdr.Pad(n83)
			if n83+p84 > len(body)-pos {
				return 0
			}
			size = wire.SlabRoom[byte](size, n83)
			pos += n83 + p84
			if pos+4 > len(body) {
				return 0
			}
			pos += 4
		default:
			if pos+4 > len(body) {
				return 0
			}
			pos += 4
		}
	}
	if pos+4 > len(body) {
		return 0
	}
	u85 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u85 > 5 {
		return 0
	}
	n86 := int(u85)
	if int64(n86)*4 > int64(len(body)-pos) {
		return 0
	}
	s87 := (*v).Ov
	if n86 > cap(s87) {
		s87 = nil
	} else {
		s87 = s87[:n86]
	}
	for i88 := 0; i88 < n86; i88++ {
		var r89 *Optinner
		if s87 != nil {
			r89 = &s87[i88]
		}
		if pos+4 > len(body) {
			return 0
		}
		f90 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f90 != 0 {
			if r89 == nil || (*r89) == nil {
				size = wire.SlabRoom[Inner](size, 1)
			}
			if pos+12 > len(body) {
				return 0
			}
			pos += 12
		}
	}
	for i91 := 0; i91 < 3; i91++ {
		if pos+4 > len(body) {
			return 0
		}
		f92 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f92 != 0 {
			if (*v).Of[i91] == nil {
				size = wire.SlabRoom[Inner](size, 1)
			}
			if pos+12 > len(body) {
				return 0
			}
			pos += 12
		}
	}
	if pos+4 > len(body) {
		return 0
	}
	f93 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if f93 != 0 {
		if pos+4 > len(body) {
			return 0
		}
		u94 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u94 > 8 {
			return 0
		}
		n95 := int(u94)
		p96 := xdr.Pad(n95)
		if n95+p96 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n95)
		pos += n95 + p96
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	}
	if pos+4 > len(body) {
		return 0
	}
	pos += 4
	return size
}

func init() {
	wire.RegisterCompiled(planUnions, wire.Compiled[Unions]{Append: compiledAppendUnions, Decode: compiledDecodeUnions})
}

// compiledAppendIntlist is the rpcgen-emitted straight-line encoder for Intlist:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendIntlist(bs *xdr.BufStream, hdr []byte, xid uint32, v *Intlist) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).V))
	s4 := (*v).Next
	for p3, k5 := s4, 0; p3 != nil; p3, k5 = (*p3).Next, k5+1 {
		if k5 > 0 {
			if k5&1 == 0 {
				s4 = (*s4).Next
			}
			if p3 == s4 {
				return xdr.ErrCycle
			}
		}
		b6 := bs.Extend(8)
		binary.BigEndian.PutUint32(b6, 1)
		binary.BigEndian.PutUint32(b6[4:], uint32((*p3).V))
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	return nil
}

// compiledDecodeIntlist is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeIntlist(body []byte, v *Intlist) error {
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v).V = int32(binary.BigEndian.Uint32(body[0:]))
	pos := 4
	l7 := &(*v).Next
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f9 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f9 == 0 {
			*l7 = nil
			break
		}
		if len(body)-pos < 8 {
			return xdr.ErrOverflow
		}
		p8 := *l7
		if p8 == nil {
			p8 = new(Intlist)
			*l7 = p8
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*p8).V = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
		l7 = &(*p8).Next
	}
	return nil
}

func init() {
	wire.RegisterCompiled(planIntlist, wire.Compiled[Intlist]{Append: compiledAppendIntlist, Decode: compiledDecodeIntlist})
}

// compiledAppendGroupnode is the rpcgen-emitted straight-line encoder for Groupnode:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendGroupnode(bs *xdr.BufStream, hdr []byte, xid uint32, v *Groupnode) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v).GrName)) > 8 {
		return xdr.ErrTooBig
	}
	n2 := len((*v).GrName)
	p3 := xdr.Pad(n2)
	w4 := bs.Extend(4 + n2 + p3)
	binary.BigEndian.PutUint32(w4, uint32(n2))
	copy(w4[4:], (*v).GrName)
	for z5 := 4 + n2; z5 < 4+n2+p3; z5++ {
		w4[z5] = 0
	}
	s7 := (*v).GrNext
	for p6, k8 := s7, 0; p6 != nil; p6, k8 = (*p6).GrNext, k8+1 {
		if k8 > 0 {
			if k8&1 == 0 {
				s7 = (*s7).GrNext
			}
			if p6 == s7 {
				return xdr.ErrCycle
			}
		}
		b9 := bs.Extend(4)
		binary.BigEndian.PutUint32(b9, 1)
		if uint32(len((*p6).GrName)) > 8 {
			return xdr.ErrTooBig
		}
		n10 := len((*p6).GrName)
		p11 := xdr.Pad(n10)
		w12 := bs.Extend(4 + n10 + p11)
		binary.BigEndian.PutUint32(w12, uint32(n10))
		copy(w12[4:], (*p6).GrName)
		for z13 := 4 + n10; z13 < 4+n10+p11; z13++ {
			w12[z13] = 0
		}
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	return nil
}

// compiledDecodeGroupnode is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabGroupnode computes.
func compiledDecodeGroupnode(body []byte, v *Groupnode) error {
	slab := wire.NewSlab(compiledSlabGroupnode(body, v))
	pos := 0
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
	(*v).GrName = slab.String(body[pos : pos+n15])
	pos += n15 + p16
	l17 := &(*v).GrNext
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f19 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f19 == 0 {
			*l17 = nil
			break
		}
		if len(body)-pos < 8 {
			return xdr.ErrOverflow
		}
		p18 := *l17
		if p18 == nil {
			p18 = new(Groupnode)
			*l17 = p18
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u20 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u20 > 8 {
			return xdr.ErrTooBig
		}
		n21 := int(u20)
		p22 := xdr.Pad(n21)
		if n21+p22 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p18).GrName = slab.String(body[pos : pos+n21])
		pos += n21 + p22
		l17 = &(*p18).GrNext
	}
	return nil
}

// compiledSlabGroupnode is compiledDecodeGroupnode's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabGroupnode(body []byte, v *Groupnode) int {
	size := 0
	pos := 0
	if pos+4 > len(body) {
		return 0
	}
	u23 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u23 > 8 {
		return 0
	}
	n24 := int(u23)
	p25 := xdr.Pad(n24)
	if n24+p25 > len(body)-pos {
		return 0
	}
	size = wire.SlabRoom[byte](size, n24)
	pos += n24 + p25
	for {
		if pos+4 > len(body) {
			return 0
		}
		f26 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f26 == 0 {
			break
		}
		if len(body)-pos < 8 {
			return 0
		}
		if pos+4 > len(body) {
			return 0
		}
		u27 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u27 > 8 {
			return 0
		}
		n28 := int(u27)
		p29 := xdr.Pad(n28)
		if n28+p29 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n28)
		pos += n28 + p29
	}
	return size
}

func init() {
	wire.RegisterCompiled(planGroupnode, wire.Compiled[Groupnode]{Append: compiledAppendGroupnode, Decode: compiledDecodeGroupnode})
}

// compiledAppendExportnode is the rpcgen-emitted straight-line encoder for Exportnode:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendExportnode(bs *xdr.BufStream, hdr []byte, xid uint32, v *Exportnode) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v).ExDir)) > 16 {
		return xdr.ErrTooBig
	}
	n2 := len((*v).ExDir)
	p3 := xdr.Pad(n2)
	w4 := bs.Extend(4 + n2 + p3)
	binary.BigEndian.PutUint32(w4, uint32(n2))
	copy(w4[4:], (*v).ExDir)
	for z5 := 4 + n2; z5 < 4+n2+p3; z5++ {
		w4[z5] = 0
	}
	s7 := (*v).ExGroups
	for p6, k8 := s7, 0; p6 != nil; p6, k8 = (*p6).GrNext, k8+1 {
		if k8 > 0 {
			if k8&1 == 0 {
				s7 = (*s7).GrNext
			}
			if p6 == s7 {
				return xdr.ErrCycle
			}
		}
		b9 := bs.Extend(4)
		binary.BigEndian.PutUint32(b9, 1)
		if uint32(len((*p6).GrName)) > 8 {
			return xdr.ErrTooBig
		}
		n10 := len((*p6).GrName)
		p11 := xdr.Pad(n10)
		w12 := bs.Extend(4 + n10 + p11)
		binary.BigEndian.PutUint32(w12, uint32(n10))
		copy(w12[4:], (*p6).GrName)
		for z13 := 4 + n10; z13 < 4+n10+p11; z13++ {
			w12[z13] = 0
		}
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	s15 := (*v).ExNext
	for p14, k16 := s15, 0; p14 != nil; p14, k16 = (*p14).ExNext, k16+1 {
		if k16 > 0 {
			if k16&1 == 0 {
				s15 = (*s15).ExNext
			}
			if p14 == s15 {
				return xdr.ErrCycle
			}
		}
		b17 := bs.Extend(4)
		binary.BigEndian.PutUint32(b17, 1)
		if uint32(len((*p14).ExDir)) > 16 {
			return xdr.ErrTooBig
		}
		n18 := len((*p14).ExDir)
		p19 := xdr.Pad(n18)
		w20 := bs.Extend(4 + n18 + p19)
		binary.BigEndian.PutUint32(w20, uint32(n18))
		copy(w20[4:], (*p14).ExDir)
		for z21 := 4 + n18; z21 < 4+n18+p19; z21++ {
			w20[z21] = 0
		}
		s23 := (*p14).ExGroups
		for p22, k24 := s23, 0; p22 != nil; p22, k24 = (*p22).GrNext, k24+1 {
			if k24 > 0 {
				if k24&1 == 0 {
					s23 = (*s23).GrNext
				}
				if p22 == s23 {
					return xdr.ErrCycle
				}
			}
			b25 := bs.Extend(4)
			binary.BigEndian.PutUint32(b25, 1)
			if uint32(len((*p22).GrName)) > 8 {
				return xdr.ErrTooBig
			}
			n26 := len((*p22).GrName)
			p27 := xdr.Pad(n26)
			w28 := bs.Extend(4 + n26 + p27)
			binary.BigEndian.PutUint32(w28, uint32(n26))
			copy(w28[4:], (*p22).GrName)
			for z29 := 4 + n26; z29 < 4+n26+p27; z29++ {
				w28[z29] = 0
			}
		}
		binary.BigEndian.PutUint32(bs.Extend(4), 0)
	}
	binary.BigEndian.PutUint32(bs.Extend(4), 0)
	return nil
}

// compiledDecodeExportnode is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabExportnode computes.
func compiledDecodeExportnode(body []byte, v *Exportnode) error {
	slab := wire.NewSlab(compiledSlabExportnode(body, v))
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u30 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u30 > 16 {
		return xdr.ErrTooBig
	}
	n31 := int(u30)
	p32 := xdr.Pad(n31)
	if n31+p32 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v).ExDir = slab.String(body[pos : pos+n31])
	pos += n31 + p32
	l33 := &(*v).ExGroups
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f35 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f35 == 0 {
			*l33 = nil
			break
		}
		if len(body)-pos < 8 {
			return xdr.ErrOverflow
		}
		p34 := *l33
		if p34 == nil {
			p34 = new(Groupnode)
			*l33 = p34
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u36 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u36 > 8 {
			return xdr.ErrTooBig
		}
		n37 := int(u36)
		p38 := xdr.Pad(n37)
		if n37+p38 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p34).GrName = slab.String(body[pos : pos+n37])
		pos += n37 + p38
		l33 = &(*p34).GrNext
	}
	l39 := &(*v).ExNext
	for {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f41 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f41 == 0 {
			*l39 = nil
			break
		}
		if len(body)-pos < 12 {
			return xdr.ErrOverflow
		}
		p40 := *l39
		if p40 == nil {
			p40 = new(Exportnode)
			*l39 = p40
		}
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u42 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u42 > 16 {
			return xdr.ErrTooBig
		}
		n43 := int(u42)
		p44 := xdr.Pad(n43)
		if n43+p44 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*p40).ExDir = slab.String(body[pos : pos+n43])
		pos += n43 + p44
		l45 := &(*p40).ExGroups
		for {
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			f47 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if f47 == 0 {
				*l45 = nil
				break
			}
			if len(body)-pos < 8 {
				return xdr.ErrOverflow
			}
			p46 := *l45
			if p46 == nil {
				p46 = new(Groupnode)
				*l45 = p46
			}
			if pos+4 > len(body) {
				return xdr.ErrOverflow
			}
			u48 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u48 > 8 {
				return xdr.ErrTooBig
			}
			n49 := int(u48)
			p50 := xdr.Pad(n49)
			if n49+p50 > len(body)-pos {
				return xdr.ErrOverflow
			}
			(*p46).GrName = slab.String(body[pos : pos+n49])
			pos += n49 + p50
			l45 = &(*p46).GrNext
		}
		l39 = &(*p40).ExNext
	}
	return nil
}

// compiledSlabExportnode is compiledDecodeExportnode's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabExportnode(body []byte, v *Exportnode) int {
	size := 0
	pos := 0
	if pos+4 > len(body) {
		return 0
	}
	u51 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u51 > 16 {
		return 0
	}
	n52 := int(u51)
	p53 := xdr.Pad(n52)
	if n52+p53 > len(body)-pos {
		return 0
	}
	size = wire.SlabRoom[byte](size, n52)
	pos += n52 + p53
	for {
		if pos+4 > len(body) {
			return 0
		}
		f54 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f54 == 0 {
			break
		}
		if len(body)-pos < 8 {
			return 0
		}
		if pos+4 > len(body) {
			return 0
		}
		u55 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u55 > 8 {
			return 0
		}
		n56 := int(u55)
		p57 := xdr.Pad(n56)
		if n56+p57 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n56)
		pos += n56 + p57
	}
	for {
		if pos+4 > len(body) {
			return 0
		}
		f58 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f58 == 0 {
			break
		}
		if len(body)-pos < 12 {
			return 0
		}
		if pos+4 > len(body) {
			return 0
		}
		u59 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u59 > 16 {
			return 0
		}
		n60 := int(u59)
		p61 := xdr.Pad(n60)
		if n60+p61 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n60)
		pos += n60 + p61
		for {
			if pos+4 > len(body) {
				return 0
			}
			f62 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if f62 == 0 {
				break
			}
			if len(body)-pos < 8 {
				return 0
			}
			if pos+4 > len(body) {
				return 0
			}
			u63 := binary.BigEndian.Uint32(body[pos:])
			pos += 4
			if u63 > 8 {
				return 0
			}
			n64 := int(u63)
			p65 := xdr.Pad(n64)
			if n64+p65 > len(body)-pos {
				return 0
			}
			size = wire.SlabRoom[byte](size, n64)
			pos += n64 + p65
		}
	}
	return size
}

func init() {
	wire.RegisterCompiled(planExportnode, wire.Compiled[Exportnode]{Append: compiledAppendExportnode, Decode: compiledDecodeExportnode})
}

// compiledAppendChoice is the rpcgen-emitted straight-line encoder for Choice:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendChoice(bs *xdr.BufStream, hdr []byte, xid uint32, v *Choice) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).Sel))
	switch (*v).Sel {
	case 0:
	case 1, 4000000000:
		b3 := bs.Extend(8)
		binary.BigEndian.PutUint64(b3[0:], uint64((*v).H))
	case 2:
		if uint32(len((*v).Nm.Nm)) > 8 {
			return xdr.ErrTooBig
		}
		n4 := len((*v).Nm.Nm)
		p5 := xdr.Pad(n4)
		w6 := bs.Extend(4 + n4 + p5)
		binary.BigEndian.PutUint32(w6, uint32(n4))
		copy(w6[4:], (*v).Nm.Nm)
		for z7 := 4 + n4; z7 < 4+n4+p5; z7++ {
			w6[z7] = 0
		}
		b8 := bs.Extend(4)
		binary.BigEndian.PutUint32(b8[0:], uint32((*v).Nm.K))
	default:
		b9 := bs.Extend(4)
		binary.BigEndian.PutUint32(b9[0:], uint32((*v).Other))
	}
	return nil
}

// compiledDecodeChoice is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeChoice(body []byte, v *Choice) error {
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v).Sel = uint32(binary.BigEndian.Uint32(body[0:]))
	pos := 4
	switch (*v).Sel {
	case 0:
	case 1, 4000000000:
		if pos+8 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).H = int64(binary.BigEndian.Uint64(body[pos:]))
		pos += 8
	case 2:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u10 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u10 > 8 {
			return xdr.ErrTooBig
		}
		n11 := int(u10)
		p12 := xdr.Pad(n11)
		if n11+p12 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*v).Nm.Nm = string(body[pos : pos+n11])
		pos += n11 + p12
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).Nm.K = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	default:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).Other = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	}
	return nil
}

func init() {
	wire.RegisterCompiled(planChoice, wire.Compiled[Choice]{Append: compiledAppendChoice, Decode: compiledDecodeChoice})
}

// compiledAppendTinted is the rpcgen-emitted straight-line encoder for Tinted:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendTinted(bs *xdr.BufStream, hdr []byte, xid uint32, v *Tinted) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).T))
	switch (*v).T {
	case 1:
		if uint32(len((*v).S)) > 8 {
			return xdr.ErrTooBig
		}
		n3 := len((*v).S)
		p4 := xdr.Pad(n3)
		w5 := bs.Extend(4 + n3 + p4)
		binary.BigEndian.PutUint32(w5, uint32(n3))
		copy(w5[4:], (*v).S)
		for z6 := 4 + n3; z6 < 4+n3+p4; z6++ {
			w5[z6] = 0
		}
	case 2:
	case 7:
		b7 := bs.Extend(12)
		binary.BigEndian.PutUint32(b7[0:], uint32((*v).Inr.P))
		binary.BigEndian.PutUint64(b7[4:], uint64((*v).Inr.Q))
	default:
		return xdr.ErrBadUnion
	}
	return nil
}

// compiledDecodeTinted is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeTinted(body []byte, v *Tinted) error {
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v).T = Tint(binary.BigEndian.Uint32(body[0:]))
	pos := 4
	switch (*v).T {
	case 1:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u8 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u8 > 8 {
			return xdr.ErrTooBig
		}
		n9 := int(u8)
		p10 := xdr.Pad(n9)
		if n9+p10 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*v).S = string(body[pos : pos+n9])
		pos += n9 + p10
	case 2:
	case 7:
		if pos+12 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).Inr.P = int32(binary.BigEndian.Uint32(body[pos:]))
		(*v).Inr.Q = int64(binary.BigEndian.Uint64(body[pos+4:]))
		pos += 12
	default:
		return xdr.ErrBadUnion
	}
	return nil
}

func init() {
	wire.RegisterCompiled(planTinted, wire.Compiled[Tinted]{Append: compiledAppendTinted, Decode: compiledDecodeTinted})
}
