// Code generated by rpcgen from an XDR interface definition. DO NOT EDIT.

package rminrpc

import (
	"encoding/binary"
	"fmt"

	rpcclient "specrpc/internal/client"
	rpcserver "specrpc/internal/server"
	wire "specrpc/internal/wire"
	xdr "specrpc/internal/xdr"
)

var _ = fmt.Errorf // referenced by generated validation paths

// RMINMAX is the IDL constant RMIN_MAX.
const RMINMAX = 64

// Pair is the IDL struct pair.
type Pair struct {
	Int1 int32
	Int2 int32
}

// wireTypePair describes pair on the wire; planPair is its compiled specialized
// marshal plan (offsets and loop bounds resolved at build time).
var (
	wireTypePair = wire.StructT("pair",
		wire.F("int1", wire.Int32T()),
		wire.F("int2", wire.Int32T()),
	)
	planPair = wire.MustPlan[Pair](wireTypePair, wire.Specialized)
)

// Marshal encodes or decodes the struct through its compiled wire plan.
func (v *Pair) Marshal(x *xdr.XDR) error { return planPair.Marshal(x, v) }

// RminProgV1 identifies the RPC program RMIN_PROG (version 1).
const (
	RminProgV1Prog     = uint32(536871065)
	RminProgV1Vers     = uint32(1)
	RminProgV1ProcRmin = uint32(1)
)

var planRminProgV1RminRes = wire.MustPlan[int32](wire.Int32T(), wire.Specialized)

// RminProgV1Client is a typed client for RMIN_PROG version 1.
type RminProgV1Client struct {
	C rpcclient.Caller
}

// Rmin calls procedure 1 through compiled wire plans, fused
// with the call header into a whole-call codec on supporting transports.
func (c *RminProgV1Client) Rmin(arg *Pair) (*int32, error) {
	res := new(int32)
	return res, rpcclient.CallTyped(c.C, RminProgV1ProcRmin, planPair, arg, planRminProgV1RminRes, res)
}

// RminProgV1Handler is the service interface for RMIN_PROG version 1. An argument is
// valid until the method returns — the server decodes the next call
// over it — and a result may alias it.
// A string or slice kept from a decoded value keeps the memory of
// that whole decode alive: the compiled decoders carve a value's
// strings, opaques and pointer-free arrays out of one allocation.
type RminProgV1Handler interface {
	Rmin(arg *Pair) (*int32, error)
}

// RegisterRminProgV1 installs h's procedures on srv.
func RegisterRminProgV1(srv *rpcserver.Server, h RminProgV1Handler) {
	rpcserver.RegisterTyped(srv, RminProgV1Prog, RminProgV1Vers, RminProgV1ProcRmin, planPair, planRminProgV1RminRes, h.Rmin)
}

// compiledAppendPair is the rpcgen-emitted straight-line encoder for Pair:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendPair(bs *xdr.BufStream, hdr []byte, xid uint32, v *Pair) error {
	w2 := bs.Extend(len(hdr) + 8)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v).Int1))
	binary.BigEndian.PutUint32(b1[4:], uint32((*v).Int2))
	return nil
}

// compiledDecodePair is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodePair(body []byte, v *Pair) error {
	if len(body) < 8 {
		return xdr.ErrOverflow
	}
	(*v).Int1 = int32(binary.BigEndian.Uint32(body[0:]))
	(*v).Int2 = int32(binary.BigEndian.Uint32(body[4:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planPair, wire.Compiled[Pair]{Append: compiledAppendPair, Decode: compiledDecodePair})
}

// compiledAppendRminProgV1RminRes is the rpcgen-emitted straight-line encoder for int32:
// one reservation covers the header and the leading fixed-size fields,
// stores land at constant offsets, arrays of scalar units go through the
// interpreter's own run kernel, and other variable-length tails run as
// explicit loops — no plan-executor dispatch. Byte-identical to the
// interpretive plan by construction.
func compiledAppendRminProgV1RminRes(bs *xdr.BufStream, hdr []byte, xid uint32, v *int32) error {
	w2 := bs.Extend(len(hdr) + 4)
	copy(w2, hdr)
	binary.BigEndian.PutUint32(w2, xid)
	b1 := w2[len(hdr):]
	binary.BigEndian.PutUint32(b1[0:], uint32((*v)))
	return nil
}

// compiledDecodeRminProgV1RminRes is the matching straight-line decoder: one length
// check per fixed-size run, loads at constant offsets, counts validated
// before any allocation.
func compiledDecodeRminProgV1RminRes(body []byte, v *int32) error {
	if len(body) < 4 {
		return xdr.ErrOverflow
	}
	(*v) = int32(binary.BigEndian.Uint32(body[0:]))
	return nil
}

func init() {
	wire.RegisterCompiled(planRminProgV1RminRes, wire.Compiled[int32]{Append: compiledAppendRminProgV1RminRes, Decode: compiledDecodeRminProgV1RminRes})
}
