// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package livespecrpc

import (
	"encoding/binary"
	"fmt"

	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// Livearr is the IDL typedef livearr.
type Livearr []int32

// wireTypeLivearr describes livearr on the wire; planLivearr is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypeLivearr = wire.VarArrayT(0, wire.Int32T())
	planLivearr     = wire.MustPlan[Livearr](wireTypeLivearr, wire.Specialized)
)

// Marshal encodes or decodes the value through its compiled wire plan.
func (v *Livearr) Marshal(x *xdr.XDR) error { return planLivearr.Marshal(x, v) }

// compiledAppendLivearr is the rpcgen-emitted straight-line encoder for Livearr:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendLivearr(bs *xdr.BufStream, hdr []byte, xid uint32, v *Livearr) error {
	w1 := bs.Extend(len(hdr))
	copy(w1, hdr)
	binary.BigEndian.PutUint32(w1, xid)
	s2 := (*v)
	n3 := len(s2)
	w4 := bs.Extend(4 + n3*4)
	binary.BigEndian.PutUint32(w4, uint32(n3))
	wire.PutUnits32(w4[4:], s2)
	return nil
}

// compiledDecodeLivearr is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeLivearr(body []byte, v *Livearr) error {
	pos := 0
	if pos+4 > len(body) {
		return xdr.ErrOverflow
	}
	u5 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n6 := int(u5)
	if n6 < 0 {
		return xdr.ErrOverflow
	}
	if int64(n6)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n6 <= cap((*v)) {
		(*v) = (*v)[:n6]
	} else {
		(*v) = make(Livearr, n6)
	}
	wire.GetUnits32((*v), body[pos:])
	pos += n6 * 4
	return nil
}

func init() {
	wire.RegisterCompiled(planLivearr, wire.Compiled[Livearr]{Append: compiledAppendLivearr, Decode: compiledDecodeLivearr})
}
