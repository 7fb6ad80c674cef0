package server

import (
	"errors"
	"sync"
	"unsafe"

	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// RegisterTyped installs a handler whose argument and result bodies are
// marshaled by compiled wire plans: the codec-based counterpart of
// Register, used by generated stubs. A nil args plan decodes nothing; a
// nil results plan (or a nil result value) replies with an empty body.
// Argument decode failures become GARBAGE_ARGS, exactly as on the
// closure path.
//
// The one handler it installs decodes its arguments straight from the
// datagram or record bytes and appends the success reply — precompiled
// header plus results — in one pass. Which marshaling engine each side
// runs on is decided here, once, by the wire package: the argument
// decoder is the plan's BodyDecoder and the reply goes through one
// wire.ReplyCodec, each on the best rung its plan reaches (an
// rpcgen-emitted routine, else the plan executor, else for a
// Generic-mode plan the interpretive walker; Snapshot lists which).
// Every rung produces byte-identical replies.
//
// Arguments are valid until the handler returns; results may alias them.
// The value h receives is the procedure's own, decoded over and handed
// out again once the reply has been appended (svc_getargs into storage
// the dispatcher owns, svc_freeargs after svc_sendreply), so its slices
// keep their backing arrays from call to call and a steady procedure
// decodes without allocating. A handler may return its argument, or
// anything pointing into it, as the result — that is encoded before the
// value is reused — but one that keeps an argument, or a slice or
// pointer out of it, past its return must copy it: the next call of the
// procedure overwrites it.
func RegisterTyped[A, R any](s *Server, prog, vers, proc uint32,
	args *wire.Plan[A], results *wire.Plan[R], h func(arg *A) (*R, error)) {
	decodeArg := args.Codec().BodyDecoder()
	rc := wire.NewReplyCodec(successTemplate, results.Codec())
	argPool := sync.Pool{New: func() any { return new(A) }}
	e := procEntry{args: args.Codec().Rung(), results: rc.Rung()}
	e.h = func(body []byte, xid uint32, bs *xdr.BufStream) error {
		arg := argPool.Get().(*A)
		if decodeArg != nil {
			if err := decodeArg(body, unsafe.Pointer(arg)); err != nil {
				argPool.Put(arg)
				return errors.Join(ErrGarbageArgs, err)
			}
		}
		res, err := h(arg)
		if err == nil {
			if res == nil {
				err = rc.AppendHeader(bs, xid)
			} else {
				err = rc.Append(bs, xid, unsafe.Pointer(res))
			}
		}
		// Not deferred: a value a handler panicked over is left to the
		// collector rather than handed to the next call.
		argPool.Put(arg)
		return err
	}
	s.register(procKey{prog, vers, proc}, e)
}
