package client

import (
	"context"
	"unsafe"

	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// CallTyped performs one RPC with the argument and result bodies
// marshaled by compiled wire plans instead of hand-written closures: the
// codec-based entry point generated stubs route through. A nil plan
// marks a void side.
//
// On the package's own transports the call runs through a pair of
// whole-message codecs cached per procedure on first use: the header
// template and the arguments go out as one pass over one buffer, and
// the results decode straight out of the accepted-success reply. Which
// marshaling engine does it — rpcgen's emitted routines where the
// plan's package registered them, else the plan's flat program fused
// with the header, else for an interpretive-mode plan its generic
// walker behind the header image — is wire.NewCallCodec's and
// wire.NewReplyCodec's choice, made once and reported by their Rung.
// The wire bytes are identical on every rung, so typed and closure
// calls multiplex freely on one connection.
func CallTyped[A, R any](c Caller, proc uint32, args *wire.Plan[A], arg *A, results *wire.Plan[R], res *R) error {
	return CallTypedCtx(context.Background(), c, proc, args, arg, results, res)
}

// CallTypedCtx is CallTyped with a per-call context: the context's
// deadline and cancellation compose with the client's global timeout
// exactly as in CallCtx. A foreign Caller only speaks closures, so it
// gets a closure pair over the plans (and the context only if it
// implements CtxCaller).
func CallTypedCtx[A, R any](ctx context.Context, c Caller, proc uint32, args *wire.Plan[A], arg *A, results *wire.Plan[R], res *R) error {
	if pc, ok := c.(plannedCaller); ok {
		return pc.callPlanned(ctx, proc, args.Codec(), unsafe.Pointer(arg), results.Codec(), unsafe.Pointer(res))
	}
	am := Void
	if args != nil {
		am = func(x *xdr.XDR) error { return args.Marshal(x, arg) }
	}
	rm := Void
	if results != nil {
		rm = func(x *xdr.XDR) error { return results.Marshal(x, res) }
	}
	if cc, ok := c.(CtxCaller); ok {
		return cc.CallCtx(ctx, proc, am, rm)
	}
	return c.Call(proc, am, rm)
}
