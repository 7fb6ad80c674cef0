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
// stores land at constant offsets, and variable-length tails run as
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
	o5 := w4[4:]
	for i6 := range s2 {
		binary.BigEndian.PutUint32(o5[0:], uint32(s2[i6]))
		o5 = o5[4:]
	}
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
	u7 := binary.BigEndian.Uint32(body[pos:])
	pos += 4
	n8 := int(u7)
	if int64(n8)*4 > int64(len(body)-pos) {
		return xdr.ErrOverflow
	}
	if n8 <= cap((*v)) {
		(*v) = (*v)[:n8]
	} else {
		(*v) = make(Livearr, n8)
	}
	s9 := (*v)
	b10 := body[pos:]
	for i11 := range s9 {
		s9[i11] = int32(binary.BigEndian.Uint32(b10[0:]))
		b10 = b10[4:]
	}
	pos += n8 * 4
	return nil
}

func init() {
	wire.RegisterCompiled(planLivearr, wire.Compiled[Livearr]{Append: compiledAppendLivearr, Decode: compiledDecodeLivearr})
}
