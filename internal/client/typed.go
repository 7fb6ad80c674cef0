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
// On the package's own transports the call runs through a whole-call
// codec cached per procedure on first use: for plans with a flat
// program the header template and the argument plan execute as one
// residual program over one buffer (rpcgen-compiled or fused), and the
// results decode straight out of the accepted-success reply;
// interpretive-mode plans get the template plus their generic Marshal.
// The wire bytes are identical either way, so typed and closure calls
// multiplex freely on one connection.
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
		var argc, resc *wire.Codec
		var ap, rp unsafe.Pointer
		if args != nil {
			argc, ap = args.Codec(), unsafe.Pointer(arg)
		}
		if results != nil {
			resc, rp = results.Codec(), unsafe.Pointer(res)
		}
		return pc.callPlanned(ctx, proc, argc, ap, resc, rp)
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
