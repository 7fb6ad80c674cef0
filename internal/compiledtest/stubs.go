// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package compiledtest

import (
	"encoding/binary"
	"fmt"
	"math"

	rpcclient "specrpc/internal/client"
	rpcserver "specrpc/internal/server"
	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// MAXNAME is the IDL constant MAXNAME.
const MAXNAME = 255

// ARRAYMAX is the IDL constant ARRAY_MAX.
const ARRAYMAX = 2000

// Color is the IDL enum color.
type Color int32

// Color values.
const (
	RED   Color = 0
	GREEN Color = 1
	BLUE  Color = 5
)

// Marshal encodes or decodes the enum.
func (v *Color) Marshal(x *xdr.XDR) error {
	e := int32(*v)
	if err := x.Enum(&e); err != nil {
		return err
	}
	*v = Color(e)
	return nil
}

// Numbers is the IDL typedef numbers.
type Numbers []int32

// wireTypeNumbers describes numbers on the wire; planNumbers is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeNumbers = wire.VarArrayT(2000, wire.Int32T())
	planNumbers     = wire.MustPlan[Numbers](wireTypeNumbers, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *Numbers) Marshal(x *xdr.XDR) error { return planNumbers.Marshal(x, v) }

// Blob is the IDL typedef blob.
type Blob []byte

// wireTypeBlob describes blob on the wire; planBlob is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeBlob = wire.OpaqueVarT(1024)
	planBlob     = wire.MustPlan[Blob](wireTypeBlob, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *Blob) Marshal(x *xdr.XDR) error { return planBlob.Marshal(x, v) }

// Word is the IDL typedef word.
type Word string

// wireTypeWord describes word on the wire; planWord is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeWord = wire.StringT(16)
	planWord     = wire.MustPlan[Word](wireTypeWord, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *Word) Marshal(x *xdr.XDR) error { return planWord.Marshal(x, v) }

// Point is the IDL struct point.
type Point struct {
	X int32
	Y int32
}

// wireTypePoint describes point on the wire; planPoint is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypePoint = wire.StructT("point",
		wire.F("x", wire.Int32T()),
		wire.F("y", wire.Int32T()),
	)
	planPoint = wire.MustPlan[Point](wireTypePoint, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Point) Marshal(x *xdr.XDR) error { return planPoint.Marshal(x, v) }

// Shape is the IDL struct shape.
type Shape struct {
	Kind    Color
	Corners [4]Point
	Label   string
	Next    *Point
	Stamp   uint64
	Weight  float64
	Visible bool
}

// wireTypeShape describes shape on the wire; planShape is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeShape = wire.StructT("shape",
		wire.F("kind", wire.Int32T()),
		wire.F("corners", wire.FixedArrayT(4, wireTypePoint)),
		wire.F("label", wire.StringT(255)),
		wire.F("next", wire.OptionalT(wireTypePoint)),
		wire.F("stamp", wire.UhyperT()),
		wire.F("weight", wire.Float64T()),
		wire.F("visible", wire.BoolT()),
	)
	planShape = wire.MustPlan[Shape](wireTypeShape, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Shape) Marshal(x *xdr.XDR) error { return planShape.Marshal(x, v) }

// Sample is the IDL struct sample.
type Sample struct {
	A       int32
	B       uint32
	Flag    bool
	F       float32
	D       float64
	H       int64
	Uh      uint64
	Kind    Color
	Tag     [10]byte
	At      Point
	Corners [3]Point
	Window  [5]int32
	Name    string
	Data    []byte
	Nums    Numbers
	Payload Blob
	Pts     []Point
	Words   []Word
	Bits    []bool
}

// wireTypeSample describes sample on the wire; planSample is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeSample = wire.StructT("sample",
		wire.F("a", wire.Int32T()),
		wire.F("b", wire.Uint32T()),
		wire.F("flag", wire.BoolT()),
		wire.F("f", wire.Float32T()),
		wire.F("d", wire.Float64T()),
		wire.F("h", wire.HyperT()),
		wire.F("uh", wire.UhyperT()),
		wire.F("kind", wire.Int32T()),
		wire.F("tag", wire.OpaqueFixedT(10)),
		wire.F("at", wireTypePoint),
		wire.F("corners", wire.FixedArrayT(3, wireTypePoint)),
		wire.F("window", wire.FixedArrayT(5, wire.Int32T())),
		wire.F("name", wire.StringT(32)),
		wire.F("data", wire.OpaqueVarT(64)),
		wire.F("nums", wireTypeNumbers),
		wire.F("payload", wireTypeBlob),
		wire.F("pts", wire.VarArrayT(7, wireTypePoint)),
		wire.F("words", wire.VarArrayT(4, wireTypeWord)),
		wire.F("bits", wire.VarArrayT(8, wire.BoolT())),
	)
	planSample = wire.MustPlan[Sample](wireTypeSample, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Sample) Marshal(x *xdr.XDR) error { return planSample.Marshal(x, v) }

// LookupResult is the IDL union lookup_result; exactly the arm selected by Status is valid.
type LookupResult struct {
	Status   int32
	S        Shape
	ErrnoVal int32
}

// wireTypeLookupResult describes lookup_result on the wire; planLookupResult is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeLookupResult = wire.UnionT("lookup_result",
		wire.F("status", wire.Int32T()),
		wire.Case("s", wireTypeShape, 0),
		wire.Case("errno_val", wire.Int32T(), 1, 2),
		wire.Default("", nil),
	)
	planLookupResult = wire.MustPlan[LookupResult](wireTypeLookupResult, wire.Specialized)
)

// Marshal encodes or decodes the union through its compiled wire plan.
func (v *LookupResult) Marshal(x *xdr.XDR) error { return planLookupResult.Marshal(x, v) }

// ShapeProgV2 identifies the RPC program SHAPE_PROG (version 2).
const (
	ShapeProgV2Prog       = uint32(536871168)
	ShapeProgV2Vers       = uint32(2)
	ShapeProgV2ProcLookup = uint32(1)
	ShapeProgV2ProcPing   = uint32(2)
	ShapeProgV2ProcScale  = uint32(3)
	ShapeProgV2ProcMix    = uint32(4)
	ShapeProgV2ProcSum    = uint32(5)
)

// planVoid is the empty program, the plan of a void argument or result.
var planVoid = wire.MustPlan[struct{}](wire.VoidT(), wire.Specialized)

var planShapeProgV2SumRes = wire.MustPlan[int32](wire.Int32T(), wire.Specialized)

// ShapeProgV2Client is a typed client for SHAPE_PROG version 2.
type ShapeProgV2Client struct {
	C rpcclient.Caller
}

// Lookup calls procedure 1 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *ShapeProgV2Client) Lookup(arg *Point) (*LookupResult, error) {
	res := new(LookupResult)
	return res, rpcclient.CallTyped(c.C, ShapeProgV2ProcLookup, planPoint, arg, planLookupResult, res)
}

// Ping calls procedure 2 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *ShapeProgV2Client) Ping() error {
	return rpcclient.CallTyped(c.C, ShapeProgV2ProcPing, planVoid, &struct{}{}, planVoid, &struct{}{})
}

// Scale calls procedure 3 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *ShapeProgV2Client) Scale(arg *Numbers) (*Numbers, error) {
	res := new(Numbers)
	return res, rpcclient.CallTyped(c.C, ShapeProgV2ProcScale, planNumbers, arg, planNumbers, res)
}

// Mix calls procedure 4 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *ShapeProgV2Client) Mix(arg *Sample) (*Sample, error) {
	res := new(Sample)
	return res, rpcclient.CallTyped(c.C, ShapeProgV2ProcMix, planSample, arg, planSample, res)
}

// Sum calls procedure 5 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *ShapeProgV2Client) Sum(arg *Numbers) (*int32, error) {
	res := new(int32)
	return res, rpcclient.CallTyped(c.C, ShapeProgV2ProcSum, planNumbers, arg, planShapeProgV2SumRes, res)
}

// ShapeProgV2Handler is the service interface for SHAPE_PROG version 2. An argument is
// valid until the method returns — the server decodes the next call
// over it — and a result may alias it.
// A string or slice kept from a decoded value keeps the memory of
// that whole decode alive: the compiled decoders carve a value's
// strings, opaques and pointer-free arrays out of one allocation.
type ShapeProgV2Handler interface {
	Lookup(arg *Point) (*LookupResult, error)
	Ping() error
	Scale(arg *Numbers) (*Numbers, error)
	Mix(arg *Sample) (*Sample, error)
	Sum(arg *Numbers) (*int32, error)
}

// RegisterShapeProgV2 installs h's procedures on srv.
func RegisterShapeProgV2(srv *rpcserver.Server, h ShapeProgV2Handler) {
	rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcLookup, planPoint, planLookupResult, h.Lookup)
	rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcPing, planVoid, planVoid, func(*struct{}) (*struct{}, error) { return nil, h.Ping() })
	rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcScale, planNumbers, planNumbers, h.Scale)
	rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcMix, planSample, planSample, h.Mix)
	rpcserver.RegisterTyped(srv, ShapeProgV2Prog, ShapeProgV2Vers, ShapeProgV2ProcSum, planNumbers, planShapeProgV2SumRes, h.Sum)
}

// compiledAppendNumbers is the rpcgen-emitted straight-line encoder for Numbers:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendNumbers(bs *xdr.BufStream, hdr []byte, xid uint32, v *Numbers) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s2 := (*v)
	if uint32(len(s2)) > 2000 {
		return xdr.ErrTooBig
	}
	n3 := len(s2)
	w4 := bs.Extend(4 + n3*4)
	binary.BigEndian.PutUint32(w4, uint32(n3))
	wire.PutUnits32(w4[4:], s2)
	return nil
}

// compiledDecodeNumbers is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeNumbers(body []byte, v *Numbers) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u5 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u5 > 2000 {
		return xdr.ErrTooBig
	}
	n6 := int(u5)
	if int64(n6)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n6 <= cap((*v)) {
		(*v) = (*v)[:n6]
	} else {
		(*v) = make(Numbers, n6)
	}
	wire.GetUnits32((*v), body[pos:])
	pos += n6 * 4
	return nil
}

func init() {
	wire.RegisterCompiled(planNumbers, wire.Compiled[Numbers]{Append: compiledAppendNumbers, Decode: compiledDecodeNumbers})
}

// compiledAppendBlob is the rpcgen-emitted straight-line encoder for Blob:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendBlob(bs *xdr.BufStream, hdr []byte, xid uint32, v *Blob) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v))) > 1024 {
		return xdr.ErrTooBig
	}
	n2 := len((*v))
	p3 := xdr.Pad(n2)
	w4 := bs.Extend(4 + n2 + p3)
	binary.BigEndian.PutUint32(w4, uint32(n2))
	copy(w4[4:], (*v))
	for z5 := 4 + n2; z5 < 4+n2+p3; z5++ {
		w4[z5] = 0
	}
	return nil
}

// compiledDecodeBlob is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeBlob(body []byte, v *Blob) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u6 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u6 > 1024 {
		return xdr.ErrTooBig
	}
	n7 := int(u6)
	p8 := xdr.Pad(n7)
	if n7+p8 > len(body)-pos {
		return xdr.ErrOverflow
	}
	if n7 <= cap((*v)) {
		(*v) = (*v)[:n7]
	} else {
		(*v) = make(Blob, n7)
	}
	copy((*v), body[pos:pos+n7])
	pos += n7 + p8
	return nil
}

func init() {
	wire.RegisterCompiled(planBlob, wire.Compiled[Blob]{Append: compiledAppendBlob, Decode: compiledDecodeBlob})
}

// compiledAppendWord is the rpcgen-emitted straight-line encoder for Word:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendWord(bs *xdr.BufStream, hdr []byte, xid uint32, v *Word) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	if uint32(len((*v))) > 16 {
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

// compiledDecodeWord is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeWord(body []byte, v *Word) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u6 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u6 > 16 {
		return xdr.ErrTooBig
	}
	n7 := int(u6)
	p8 := xdr.Pad(n7)
	if n7+p8 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v) = Word(body[pos : pos+n7])
	pos += n7 + p8
	return nil
}

func init() {
	wire.RegisterCompiled(planWord, wire.Compiled[Word]{Append: compiledAppendWord, Decode: compiledDecodeWord})
}

// compiledAppendPoint is the rpcgen-emitted straight-line encoder for Point:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendPoint(bs *xdr.BufStream, hdr []byte, xid uint32, v *Point) error {
	w2 := bs.Extend(len(hdr) + 8)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).X))
	binary.BigEndian.PutUint32(b1[4:], uint32((*v).Y))
	return nil
}

// compiledDecodePoint is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodePoint(body []byte, v *Point) error {
	if len(body) < 8 {
		return xdr.ErrOverflow
	}
	(*v).X = int32(binary.BigEndian.Uint32(body[0:]))
	(*v).Y = int32(binary.BigEndian.Uint32(body[4:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planPoint, wire.Compiled[Point]{Append: compiledAppendPoint, Decode: compiledDecodePoint})
}

// compiledAppendShape is the rpcgen-emitted straight-line encoder for Shape:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendShape(bs *xdr.BufStream, hdr []byte, xid uint32, v *Shape) error {
	w2 := bs.Extend(len(hdr) + 36)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).Kind))
	binary.BigEndian.PutUint32(b1[4:], uint32((*v).Corners[0].X))
	binary.BigEndian.PutUint32(b1[8:], uint32((*v).Corners[0].Y))
	binary.BigEndian.PutUint32(b1[12:], uint32((*v).Corners[1].X))
	binary.BigEndian.PutUint32(b1[16:], uint32((*v).Corners[1].Y))
	binary.BigEndian.PutUint32(b1[20:], uint32((*v).Corners[2].X))
	binary.BigEndian.PutUint32(b1[24:], uint32((*v).Corners[2].Y))
	binary.BigEndian.PutUint32(b1[28:], uint32((*v).Corners[3].X))
	binary.BigEndian.PutUint32(b1[32:], uint32((*v).Corners[3].Y))
	if uint32(len((*v).Label)) > 255 {
		return xdr.ErrTooBig
	}
	n3 := len((*v).Label)
	p4 := xdr.Pad(n3)
	w5 := bs.Extend(4 + n3 + p4)
	binary.BigEndian.PutUint32(w5, uint32(n3))
	copy(w5[4:], (*v).Label)
	for z6 := 4 + n3; z6 < 4+n3+p4; z6++ {
		w5[z6] = 0
	}
	if p7 := (*v).Next; p7 != nil {
		b8 := bs.Extend(12)
		binary.BigEndian.PutUint32(b8, 1)
		binary.BigEndian.PutUint32(b8[4:], uint32((*p7).X))
		binary.BigEndian.PutUint32(b8[8:], uint32((*p7).Y))
	} else {
		binary.BigEndian.PutUint32(bs.Extend(4), 0)
	}
	b9 := bs.Extend(20)
	binary.BigEndian.PutUint64(b9[0:], uint64((*v).Stamp))
	binary.BigEndian.PutUint64(b9[8:], math.Float64bits((*v).Weight))
	if (*v).Visible {
		binary.BigEndian.PutUint32(b9[16:], 1)
	} else {
		binary.BigEndian.PutUint32(b9[16:], 0)
	}
	return nil
}

// compiledDecodeShape is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabShape computes.
func compiledDecodeShape(body []byte, v *Shape) error {
	slab := wire.NewSlab(compiledSlabShape(body, v))
	if len(body) < 36 {
		return xdr.ErrOverflow
	}
	(*v).Kind = Color(binary.BigEndian.Uint32(body[0:]))
	(*v).Corners[0].X = int32(binary.BigEndian.Uint32(body[4:]))
	(*v).Corners[0].Y = int32(binary.BigEndian.Uint32(body[8:]))
	(*v).Corners[1].X = int32(binary.BigEndian.Uint32(body[12:]))
	(*v).Corners[1].Y = int32(binary.BigEndian.Uint32(body[16:]))
	(*v).Corners[2].X = int32(binary.BigEndian.Uint32(body[20:]))
	(*v).Corners[2].Y = int32(binary.BigEndian.Uint32(body[24:]))
	(*v).Corners[3].X = int32(binary.BigEndian.Uint32(body[28:]))
	(*v).Corners[3].Y = int32(binary.BigEndian.Uint32(body[32:]))
	pos := 36
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u10 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u10 > 255 {
		return xdr.ErrTooBig
	}
	n11 := int(u10)
	p12 := xdr.Pad(n11)
	if n11+p12 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v).Label = slab.String(body[pos : pos+n11])
	pos += n11 + p12
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	f13 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if f13 == 0 {
		(*v).Next = nil
	} else {
		p14 := (*v).Next
		if p14 == nil {
			p14 = wire.CarveNew[Point](&slab)
			(*v).Next = p14
		}
		if pos+8 > len(body) {
			return xdr.ErrOverflow
		}
		(*p14).X = int32(binary.BigEndian.Uint32(body[pos:]))
		(*p14).Y = int32(binary.BigEndian.Uint32(body[pos+4:]))
		pos += 8
	}
	if pos+20 > len(body) {
		return xdr.ErrOverflow
	}
	(*v).Stamp = uint64(binary.BigEndian.Uint64(body[pos:]))
	(*v).Weight = math.Float64frombits(binary.BigEndian.Uint64(body[pos+8:]))
	(*v).Visible = binary.BigEndian.Uint32(body[pos+16:]) != 0
	pos += 20
	return nil
}

// compiledSlabShape is compiledDecodeShape's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabShape(body []byte, v *Shape) int {
	size := 0
	if len(body) < 36 {
		return 0
	}
	pos := 36
	if pos+4 > len(body) {
		return 0
	}
	u15 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u15 > 255 {
		return 0
	}
	n16 := int(u15)
	p17 := xdr.Pad(n16)
	if n16+p17 > len(body)-pos {
		return 0
	}
	size = wire.SlabRoom[byte](size, n16)
	pos += n16 + p17
	if pos+4 > len(body) {
		return 0
	}
	f18 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if f18 != 0 {
		if (*v).Next == nil {
			size = wire.SlabRoom[Point](size, 1)
		}
		if pos+8 > len(body) {
			return 0
		}
		pos += 8
	}
	if pos+20 > len(body) {
		return 0
	}
	pos += 20
	return size
}

func init() {
	wire.RegisterCompiled(planShape, wire.Compiled[Shape]{Append: compiledAppendShape, Decode: compiledDecodeShape})
}

// compiledAppendSample is the rpcgen-emitted straight-line encoder for Sample:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendSample(bs *xdr.BufStream, hdr []byte, xid uint32, v *Sample) error {
	w2 := bs.Extend(len(hdr) + 108)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).A))
	binary.BigEndian.PutUint32(b1[4:], uint32((*v).B))
	if (*v).Flag {
		binary.BigEndian.PutUint32(b1[8:], 1)
	} else {
		binary.BigEndian.PutUint32(b1[8:], 0)
	}
	binary.BigEndian.PutUint32(b1[12:], math.Float32bits((*v).F))
	binary.BigEndian.PutUint64(b1[16:], math.Float64bits((*v).D))
	binary.BigEndian.PutUint64(b1[24:], uint64((*v).H))
	binary.BigEndian.PutUint64(b1[32:], uint64((*v).Uh))
	binary.BigEndian.PutUint32(b1[40:], uint32((*v).Kind))
	copy(b1[44:54], (*v).Tag[:])
	b1[54] = 0
	b1[55] = 0
	binary.BigEndian.PutUint32(b1[56:], uint32((*v).At.X))
	binary.BigEndian.PutUint32(b1[60:], uint32((*v).At.Y))
	binary.BigEndian.PutUint32(b1[64:], uint32((*v).Corners[0].X))
	binary.BigEndian.PutUint32(b1[68:], uint32((*v).Corners[0].Y))
	binary.BigEndian.PutUint32(b1[72:], uint32((*v).Corners[1].X))
	binary.BigEndian.PutUint32(b1[76:], uint32((*v).Corners[1].Y))
	binary.BigEndian.PutUint32(b1[80:], uint32((*v).Corners[2].X))
	binary.BigEndian.PutUint32(b1[84:], uint32((*v).Corners[2].Y))
	wire.PutUnits32(b1[88:108], (*v).Window[:])
	if uint32(len((*v).Name)) > 32 {
		return xdr.ErrTooBig
	}
	n3 := len((*v).Name)
	p4 := xdr.Pad(n3)
	w5 := bs.Extend(4 + n3 + p4)
	binary.BigEndian.PutUint32(w5, uint32(n3))
	copy(w5[4:], (*v).Name)
	for z6 := 4 + n3; z6 < 4+n3+p4; z6++ {
		w5[z6] = 0
	}
	if uint32(len((*v).Data)) > 64 {
		return xdr.ErrTooBig
	}
	n7 := len((*v).Data)
	p8 := xdr.Pad(n7)
	w9 := bs.Extend(4 + n7 + p8)
	binary.BigEndian.PutUint32(w9, uint32(n7))
	copy(w9[4:], (*v).Data)
	for z10 := 4 + n7; z10 < 4+n7+p8; z10++ {
		w9[z10] = 0
	}
	s11 := (*v).Nums
	if uint32(len(s11)) > 2000 {
		return xdr.ErrTooBig
	}
	n12 := len(s11)
	w13 := bs.Extend(4 + n12*4)
	binary.BigEndian.PutUint32(w13, uint32(n12))
	wire.PutUnits32(w13[4:], s11)
	if uint32(len((*v).Payload)) > 1024 {
		return xdr.ErrTooBig
	}
	n14 := len((*v).Payload)
	p15 := xdr.Pad(n14)
	w16 := bs.Extend(4 + n14 + p15)
	binary.BigEndian.PutUint32(w16, uint32(n14))
	copy(w16[4:], (*v).Payload)
	for z17 := 4 + n14; z17 < 4+n14+p15; z17++ {
		w16[z17] = 0
	}
	s18 := (*v).Pts
	if uint32(len(s18)) > 7 {
		return xdr.ErrTooBig
	}
	n19 := len(s18)
	w20 := bs.Extend(4 + n19*8)
	binary.BigEndian.PutUint32(w20, uint32(n19))
	o21 := w20[4:]
	for i22 := range s18 {
		binary.BigEndian.PutUint32(o21[0:], uint32(s18[i22].X))
		binary.BigEndian.PutUint32(o21[4:], uint32(s18[i22].Y))
		o21 = o21[8:]
	}
	s23 := (*v).Words
	if uint32(len(s23)) > 4 {
		return xdr.ErrTooBig
	}
	n24 := len(s23)
	binary.BigEndian.PutUint32(bs.Extend(4), uint32(n24))
	for i25 := range s23 {
		if uint32(len(s23[i25])) > 16 {
			return xdr.ErrTooBig
		}
		n26 := len(s23[i25])
		p27 := xdr.Pad(n26)
		w28 := bs.Extend(4 + n26 + p27)
		binary.BigEndian.PutUint32(w28, uint32(n26))
		copy(w28[4:], string(s23[i25]))
		for z29 := 4 + n26; z29 < 4+n26+p27; z29++ {
			w28[z29] = 0
		}
	}
	s30 := (*v).Bits
	if uint32(len(s30)) > 8 {
		return xdr.ErrTooBig
	}
	n31 := len(s30)
	w32 := bs.Extend(4 + n31*4)
	binary.BigEndian.PutUint32(w32, uint32(n31))
	o33 := w32[4:]
	for i34 := range s30 {
		if s30[i34] {
			binary.BigEndian.PutUint32(o33[0:], 1)
		} else {
			binary.BigEndian.PutUint32(o33[0:], 0)
		}
		o33 = o33[4:]
	}
	return nil
}

// compiledDecodeSample is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabSample computes.
func compiledDecodeSample(body []byte, v *Sample) error {
	slab := wire.NewSlab(compiledSlabSample(body, v))
	if len(body) < 108 {
		return xdr.ErrOverflow
	}
	(*v).A = int32(binary.BigEndian.Uint32(body[0:]))
	(*v).B = uint32(binary.BigEndian.Uint32(body[4:]))
	(*v).Flag = binary.BigEndian.Uint32(body[8:]) != 0
	(*v).F = math.Float32frombits(binary.BigEndian.Uint32(body[12:]))
	(*v).D = math.Float64frombits(binary.BigEndian.Uint64(body[16:]))
	(*v).H = int64(binary.BigEndian.Uint64(body[24:]))
	(*v).Uh = uint64(binary.BigEndian.Uint64(body[32:]))
	(*v).Kind = Color(binary.BigEndian.Uint32(body[40:]))
	copy((*v).Tag[:], body[44:54])
	(*v).At.X = int32(binary.BigEndian.Uint32(body[56:]))
	(*v).At.Y = int32(binary.BigEndian.Uint32(body[60:]))
	(*v).Corners[0].X = int32(binary.BigEndian.Uint32(body[64:]))
	(*v).Corners[0].Y = int32(binary.BigEndian.Uint32(body[68:]))
	(*v).Corners[1].X = int32(binary.BigEndian.Uint32(body[72:]))
	(*v).Corners[1].Y = int32(binary.BigEndian.Uint32(body[76:]))
	(*v).Corners[2].X = int32(binary.BigEndian.Uint32(body[80:]))
	(*v).Corners[2].Y = int32(binary.BigEndian.Uint32(body[84:]))
	wire.GetUnits32((*v).Window[:], body[88:108])
	pos := 108
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u35 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u35 > 32 {
		return xdr.ErrTooBig
	}
	n36 := int(u35)
	p37 := xdr.Pad(n36)
	if n36+p37 > len(body)-pos {
		return xdr.ErrOverflow
	}
	(*v).Name = slab.String(body[pos : pos+n36])
	pos += n36 + p37
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u38 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u38 > 64 {
		return xdr.ErrTooBig
	}
	n39 := int(u38)
	p40 := xdr.Pad(n39)
	if n39+p40 > len(body)-pos {
		return xdr.ErrOverflow
	}
	if n39 <= cap((*v).Data) {
		(*v).Data = (*v).Data[:n39]
	} else {
		(*v).Data = wire.Carve[byte](&slab, n39)
	}
	copy((*v).Data, body[pos:pos+n39])
	pos += n39 + p40
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u41 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u41 > 2000 {
		return xdr.ErrTooBig
	}
	n42 := int(u41)
	if int64(n42)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n42 <= cap((*v).Nums) {
		(*v).Nums = (*v).Nums[:n42]
	} else {
		(*v).Nums = wire.Carve[int32](&slab, n42)
	}
	wire.GetUnits32((*v).Nums, body[pos:])
	pos += n42 * 4
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u43 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u43 > 1024 {
		return xdr.ErrTooBig
	}
	n44 := int(u43)
	p45 := xdr.Pad(n44)
	if n44+p45 > len(body)-pos {
		return xdr.ErrOverflow
	}
	if n44 <= cap((*v).Payload) {
		(*v).Payload = (*v).Payload[:n44]
	} else {
		(*v).Payload = wire.Carve[byte](&slab, n44)
	}
	copy((*v).Payload, body[pos:pos+n44])
	pos += n44 + p45
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u46 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u46 > 7 {
		return xdr.ErrTooBig
	}
	n47 := int(u46)
	if int64(n47)*8 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n47 <= cap((*v).Pts) {
		(*v).Pts = (*v).Pts[:n47]
	} else {
		(*v).Pts = wire.Carve[Point](&slab, n47)
	}
	s48 := (*v).Pts
	b49 := body[pos:]
	for i50 := range s48 {
		s48[i50].X = int32(binary.BigEndian.Uint32(b49[0:]))
		s48[i50].Y = int32(binary.BigEndian.Uint32(b49[4:]))
		b49 = b49[8:]
	}
	pos += n47 * 8
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u51 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u51 > 4 {
		return xdr.ErrTooBig
	}
	n52 := int(u51)
	if int64(n52)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n52 <= cap((*v).Words) {
		(*v).Words = (*v).Words[:n52]
	} else {
		(*v).Words = make([]Word, n52)
	}
	s53 := (*v).Words
	for i54 := range s53 {
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u55 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u55 > 16 {
			return xdr.ErrTooBig
		}
		n56 := int(u55)
		p57 := xdr.Pad(n56)
		if n56+p57 > len(body)-pos {
			return xdr.ErrOverflow
		}
		s53[i54] = Word(slab.String(body[pos : pos+n56]))
		pos += n56 + p57
	}
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u58 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u58 > 8 {
		return xdr.ErrTooBig
	}
	n59 := int(u58)
	if int64(n59)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n59 <= cap((*v).Bits) {
		(*v).Bits = (*v).Bits[:n59]
	} else {
		(*v).Bits = wire.Carve[bool](&slab, n59)
	}
	s60 := (*v).Bits
	b61 := body[pos:]
	for i62 := range s60 {
		s60[i62] = binary.BigEndian.Uint32(b61[0:]) != 0
		b61 = b61[4:]
	}
	pos += n59 * 4
	return nil
}

// compiledSlabSample is compiledDecodeSample's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabSample(body []byte, v *Sample) int {
	size := 0
	if len(body) < 108 {
		return 0
	}
	pos := 108
	if pos+4 > len(body) {
		return 0
	}
	u63 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u63 > 32 {
		return 0
	}
	n64 := int(u63)
	p65 := xdr.Pad(n64)
	if n64+p65 > len(body)-pos {
		return 0
	}
	size = wire.SlabRoom[byte](size, n64)
	pos += n64 + p65
	if pos+4 > len(body) {
		return 0
	}
	u66 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u66 > 64 {
		return 0
	}
	n67 := int(u66)
	p68 := xdr.Pad(n67)
	if n67+p68 > len(body)-pos {
		return 0
	}
	if n67 > cap((*v).Data) {
		size = wire.SlabRoom[byte](size, n67)
	}
	pos += n67 + p68
	if pos+4 > len(body) {
		return 0
	}
	u69 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u69 > 2000 {
		return 0
	}
	n70 := int(u69)
	if int64(n70)*4 > int64(len(body)-pos) {
		return 0
	}
	if n70 > cap((*v).Nums) {
		size = wire.SlabRoom[int32](size, n70)
	}
	pos += n70 * 4
	if pos+4 > len(body) {
		return 0
	}
	u71 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u71 > 1024 {
		return 0
	}
	n72 := int(u71)
	p73 := xdr.Pad(n72)
	if n72+p73 > len(body)-pos {
		return 0
	}
	if n72 > cap((*v).Payload) {
		size = wire.SlabRoom[byte](size, n72)
	}
	pos += n72 + p73
	if pos+4 > len(body) {
		return 0
	}
	u74 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u74 > 7 {
		return 0
	}
	n75 := int(u74)
	if int64(n75)*8 > int64(len(body)-pos) {
		return 0
	}
	if n75 > cap((*v).Pts) {
		size = wire.SlabRoom[Point](size, n75)
	}
	pos += n75 * 8
	if pos+4 > len(body) {
		return 0
	}
	u76 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u76 > 4 {
		return 0
	}
	n77 := int(u76)
	if int64(n77)*4 > int64(len(body)-pos) {
		return 0
	}
	for i78 := 0; i78 < n77; i78++ {
		if pos+4 > len(body) {
			return 0
		}
		u79 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u79 > 16 {
			return 0
		}
		n80 := int(u79)
		p81 := xdr.Pad(n80)
		if n80+p81 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n80)
		pos += n80 + p81
	}
	if pos+4 > len(body) {
		return 0
	}
	u82 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	if u82 > 8 {
		return 0
	}
	n83 := int(u82)
	if int64(n83)*4 > int64(len(body)-pos) {
		return 0
	}
	if n83 > cap((*v).Bits) {
		size = wire.SlabRoom[bool](size, n83)
	}
	pos += n83 * 4
	return size
}

func init() {
	wire.RegisterCompiled(planSample, wire.Compiled[Sample]{Append: compiledAppendSample, Decode: compiledDecodeSample})
}

// compiledAppendLookupResult is the rpcgen-emitted straight-line encoder for LookupResult:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendLookupResult(bs *xdr.BufStream, hdr []byte, xid uint32, v *LookupResult) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).Status))
	switch (*v).Status {
	case 0:
		b3 := bs.Extend(36)
		binary.BigEndian.PutUint32(b3[0:], uint32((*v).S.Kind))
		binary.BigEndian.PutUint32(b3[4:], uint32((*v).S.Corners[0].X))
		binary.BigEndian.PutUint32(b3[8:], uint32((*v).S.Corners[0].Y))
		binary.BigEndian.PutUint32(b3[12:], uint32((*v).S.Corners[1].X))
		binary.BigEndian.PutUint32(b3[16:], uint32((*v).S.Corners[1].Y))
		binary.BigEndian.PutUint32(b3[20:], uint32((*v).S.Corners[2].X))
		binary.BigEndian.PutUint32(b3[24:], uint32((*v).S.Corners[2].Y))
		binary.BigEndian.PutUint32(b3[28:], uint32((*v).S.Corners[3].X))
		binary.BigEndian.PutUint32(b3[32:], uint32((*v).S.Corners[3].Y))
		if uint32(len((*v).S.Label)) > 255 {
			return xdr.ErrTooBig
		}
		n4 := len((*v).S.Label)
		p5 := xdr.Pad(n4)
		w6 := bs.Extend(4 + n4 + p5)
		binary.BigEndian.PutUint32(w6, uint32(n4))
		copy(w6[4:], (*v).S.Label)
		for z7 := 4 + n4; z7 < 4+n4+p5; z7++ {
			w6[z7] = 0
		}
		if p8 := (*v).S.Next; p8 != nil {
			b9 := bs.Extend(12)
			binary.BigEndian.PutUint32(b9, 1)
			binary.BigEndian.PutUint32(b9[4:], uint32((*p8).X))
			binary.BigEndian.PutUint32(b9[8:], uint32((*p8).Y))
		} else {
			binary.BigEndian.PutUint32(bs.Extend(4), 0)
		}
		b10 := bs.Extend(20)
		binary.BigEndian.PutUint64(b10[0:], uint64((*v).S.Stamp))
		binary.BigEndian.PutUint64(b10[8:], math.Float64bits((*v).S.Weight))
		if (*v).S.Visible {
			binary.BigEndian.PutUint32(b10[16:], 1)
		} else {
			binary.BigEndian.PutUint32(b10[16:], 0)
		}
	case 1, 2:
		b11 := bs.Extend(4)
		binary.BigEndian.PutUint32(b11[0:], uint32((*v).ErrnoVal))
	default:
	}
	return nil
}

// compiledDecodeLookupResult is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
// Strings, opaques and pointer-free arrays are carved from one slab
// of the size compiledSlabLookupResult computes.
func compiledDecodeLookupResult(body []byte, v *LookupResult) error {
	slab := wire.NewSlab(compiledSlabLookupResult(body, v))
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v).Status = int32(binary.BigEndian.Uint32(body[0:]))
	pos := 4
	switch (*v).Status {
	case 0:
		if pos+36 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).S.Kind = Color(binary.BigEndian.Uint32(body[pos:]))
		(*v).S.Corners[0].X = int32(binary.BigEndian.Uint32(body[pos+4:]))
		(*v).S.Corners[0].Y = int32(binary.BigEndian.Uint32(body[pos+8:]))
		(*v).S.Corners[1].X = int32(binary.BigEndian.Uint32(body[pos+12:]))
		(*v).S.Corners[1].Y = int32(binary.BigEndian.Uint32(body[pos+16:]))
		(*v).S.Corners[2].X = int32(binary.BigEndian.Uint32(body[pos+20:]))
		(*v).S.Corners[2].Y = int32(binary.BigEndian.Uint32(body[pos+24:]))
		(*v).S.Corners[3].X = int32(binary.BigEndian.Uint32(body[pos+28:]))
		(*v).S.Corners[3].Y = int32(binary.BigEndian.Uint32(body[pos+32:]))
		pos += 36
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		u12 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u12 > 255 {
			return xdr.ErrTooBig
		}
		n13 := int(u12)
		p14 := xdr.Pad(n13)
		if n13+p14 > len(body)-pos {
			return xdr.ErrOverflow
		}
		(*v).S.Label = slab.String(body[pos : pos+n13])
		pos += n13 + p14
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		f15 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f15 == 0 {
			(*v).S.Next = nil
		} else {
			p16 := (*v).S.Next
			if p16 == nil {
				p16 = wire.CarveNew[Point](&slab)
				(*v).S.Next = p16
			}
			if pos+8 > len(body) {
				return xdr.ErrOverflow
			}
			(*p16).X = int32(binary.BigEndian.Uint32(body[pos:]))
			(*p16).Y = int32(binary.BigEndian.Uint32(body[pos+4:]))
			pos += 8
		}
		if pos+20 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).S.Stamp = uint64(binary.BigEndian.Uint64(body[pos:]))
		(*v).S.Weight = math.Float64frombits(binary.BigEndian.Uint64(body[pos+8:]))
		(*v).S.Visible = binary.BigEndian.Uint32(body[pos+16:]) != 0
		pos += 20
	case 1, 2:
		if pos+4 > len(body) {
			return xdr.ErrOverflow
		}
		(*v).ErrnoVal = int32(binary.BigEndian.Uint32(body[pos:]))
		pos += 4
	default:
	}
	return nil
}

// compiledSlabLookupResult is compiledDecodeLookupResult's pre-pass: the Go bytes of
// every string, opaque and pointer-free array a decode of body into v
// allocates, aligned as wire.Carve aligns them, or 0 where the decode
// fails. It reads the counts with the decoder's own checks and leaves
// out the slices the decode reuses.
func compiledSlabLookupResult(body []byte, v *LookupResult) int {
	size := 0
	if len(body) < 4 {
		return 0
	}
	pos := 4
	switch int32(binary.BigEndian.Uint32(body[pos-4:])) {
	case 0:
		if pos+36 > len(body) {
			return 0
		}
		pos += 36
		if pos+4 > len(body) {
			return 0
		}
		u17 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if u17 > 255 {
			return 0
		}
		n18 := int(u17)
		p19 := xdr.Pad(n18)
		if n18+p19 > len(body)-pos {
			return 0
		}
		size = wire.SlabRoom[byte](size, n18)
		pos += n18 + p19
		if pos+4 > len(body) {
			return 0
		}
		f20 := binary.BigEndian.Uint32(body[pos:])
		pos += 4
		if f20 != 0 {
			if (*v).S.Next == nil {
				size = wire.SlabRoom[Point](size, 1)
			}
			if pos+8 > len(body) {
				return 0
			}
			pos += 8
		}
		if pos+20 > len(body) {
			return 0
		}
		pos += 20
	case 1, 2:
		if pos+4 > len(body) {
			return 0
		}
		pos += 4
	default:
	}
	return size
}

func init() {
	wire.RegisterCompiled(planLookupResult, wire.Compiled[LookupResult]{Append: compiledAppendLookupResult, Decode: compiledDecodeLookupResult})
}

// compiledAppendVoid is the rpcgen-emitted straight-line encoder for struct{}:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendVoid(bs *xdr.BufStream, hdr []byte, xid uint32, v *struct{}) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	return nil
}

// compiledDecodeVoid is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeVoid(body []byte, v *struct{}) error {
	return nil
}

func init() {
	wire.RegisterCompiled(planVoid, wire.Compiled[struct{}]{Append: compiledAppendVoid, Decode: compiledDecodeVoid})
}

// compiledAppendShapeProgV2SumRes is the rpcgen-emitted straight-line encoder for int32:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendShapeProgV2SumRes(bs *xdr.BufStream, hdr []byte, xid uint32, v *int32) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v)))
	return nil
}

// compiledDecodeShapeProgV2SumRes is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeShapeProgV2SumRes(body []byte, v *int32) error {
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v) = int32(binary.BigEndian.Uint32(body[0:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planShapeProgV2SumRes, wire.Compiled[int32]{Append: compiledAppendShapeProgV2SumRes, Decode: compiledDecodeShapeProgV2SumRes})
}
