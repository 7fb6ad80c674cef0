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
// header plus results — in one pass, each side on the best rung its
// plan reaches: an rpcgen-emitted compiled routine, else the plan
// executor, else (Generic-mode plans, which have no flat program) the
// interpretive walker. Every rung produces byte-identical replies.
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
	var argc, resc *wire.Codec
	if args != nil {
		argc = args.Codec()
	}
	if results != nil {
		resc = results.Codec()
	}
	// Nil checks happen on the concrete values so a missing compiled
	// registration never plants a typed-nil appender in the interface.
	var rc wire.ReplyAppender = planReply{resc}
	if fused, err := wire.NewReplyCodec(successTemplate, resc); err == nil {
		rc = fused
	}
	if crc := wire.NewCompiledReplyCodec(successTemplate, resc); crc != nil {
		rc = crc
	}
	decodeArg := wire.CompiledBodyDecode(argc)
	if decodeArg == nil && argc != nil {
		decodeArg = argc.DecodeBody
	}
	argPool := sync.Pool{New: func() any { return new(A) }}
	s.register(prog, vers, proc, func(body []byte, xid uint32, bs *xdr.BufStream) error {
		arg := argPool.Get().(*A)
		if decodeArg != nil {
			if err := decodeArg(body, unsafe.Pointer(arg)); err != nil {
				argPool.Put(arg)
				return errors.Join(ErrGarbageArgs, err)
			}
		}
		res, err := h(arg)
		if err == nil {
			if resc == nil || res == nil {
				err = rc.AppendHeader(bs, xid)
			} else {
				err = rc.Append(bs, xid, unsafe.Pointer(res))
			}
		}
		// Not deferred: a value a handler panicked over is left to the
		// collector rather than handed to the next call.
		argPool.Put(arg)
		return err
	})
}

// planReply is the ReplyAppender of a Generic-mode result plan, which
// NewReplyCodec rejects: the success header, then the plan's
// interpretive Marshal.
type planReply struct {
	resc *wire.Codec
}

func (r planReply) AppendHeader(bs *xdr.BufStream, xid uint32) error {
	appendSuccess(bs, xid)
	return nil
}

func (r planReply) Append(bs *xdr.BufStream, xid uint32, res unsafe.Pointer) error {
	appendSuccess(bs, xid)
	return r.resc.Marshal(&xdr.XDR{Op: xdr.Encode, Stream: bs}, res)
}
