package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// This file fuses the two halves of the specialized message path into
// whole-message codecs: the per-connection header template (rpcmsg) and
// the per-type compiled marshal plan (this package) stop being stitched
// together at run time and become one residual program per procedure —
// the paper's "optimized" configuration, where clnt_call through
// argument encode is a single specialized routine.
//
// A CallCodec emits a complete call message: one bounds reservation
// covers the header image plus every leading fixed-size instruction of
// the argument plan, the XID and procedure number live at fixed offsets
// inside the image (the procedure is stamped at compile time, the XID
// per call), and only the variable-sized tail of the plan still pays a
// reservation per instruction. A ReplyCodec does the same for the
// accepted-success reply on the server and decodes results straight out
// of the raw reply bytes on the client, with no intermediate XDR handle.
//
// Both codecs are compiled through the template and plan layers they
// replace, so their bytes are identical to the template-copy + plan
// pair by construction; the differential fuzz tests keep that true.

// fusedBody is the argument or result half of a whole-message codec: a
// view of the codec's own flat program, not a second compilation of it.
// The leading fixed-size instructions are stored straight into the
// header's bounds reservation; the rest, from the first variable-sized
// instruction on, runs through the plan executor. Both halves store
// through putRun, so fused bytes equal plan bytes by construction.
type fusedBody struct {
	prog      []instr // the codec's program, shared
	nfixed    int     // leading fixed-size instructions: prog[:nfixed]
	fixedWire int     // wire bytes prog[:nfixed] covers
}

// fuseBody takes the fused view of a codec's flat program. A nil codec
// (a void side) yields the empty body.
func fuseBody(c *Codec) (fusedBody, error) {
	if c == nil {
		return fusedBody{}, nil
	}
	if c.mode == Generic {
		return fusedBody{}, fmt.Errorf("wire: cannot fuse a generic codec")
	}
	b := fusedBody{prog: c.prog}
	for b.nfixed < len(b.prog) && b.prog[b.nfixed].op.fixed() {
		b.fixedWire += b.prog[b.nfixed].wire
		b.nfixed++
	}
	return b, nil
}

// encodeFixed executes fixed-size instructions into an already-reserved
// window: no growth checks, no dispatch through the stream — the
// residual loop of the whole-call specialization.
//
//specrpc:hotpath
func encodeFixed(w []byte, prog []instr, p unsafe.Pointer) {
	for i := range prog {
		in := &prog[i]
		putRun(w[:in.wire], in.op, unsafe.Add(p, in.off), in.n)
		w = w[in.wire:]
	}
}

// appendFused emits one whole message: a single Extend covers the
// header image plus the fixed prefix of the program, the XID is stamped
// at its fixed offset, and the variable tail continues through the plan
// executor on the same buffer.
//
//specrpc:hotpath
func appendFused(bs *xdr.BufStream, hdr []byte, xidOff int, body *fusedBody, xid uint32, p unsafe.Pointer) error {
	w := bs.Extend(len(hdr) + body.fixedWire)
	copy(w, hdr)
	binary.BigEndian.PutUint32(w[xidOff:], xid)
	encodeFixed(w[len(hdr):], body.prog[:body.nfixed], p)
	return encodeProg(bs, body.prog[body.nfixed:], p)
}

// ---------------------------------------------------------------------------
// Call side

// CallCodec is a compiled whole-call encoder for one (header template,
// procedure, argument codec) triple: the fused image of everything a
// client sends for that procedure except the XID and the argument
// bytes. Immutable and safe for concurrent use.
type CallCodec struct {
	hdr  []byte // template bytes with the procedure stamped, XID zeroed
	body fusedBody
}

// NewCallCodec fuses tmpl and the argument codec for proc. A nil args
// codec marks a void argument side; a Generic-mode codec is rejected
// (there is no flat program to fuse — callers keep the interpretive
// path).
func NewCallCodec(tmpl *rpcmsg.CallTemplate, proc uint32, args *Codec) (*CallCodec, error) {
	if tmpl == nil {
		return nil, fmt.Errorf("wire: nil call template")
	}
	body, err := fuseBody(args)
	if err != nil {
		return nil, err
	}
	return &CallCodec{hdr: tmpl.AppendCall(nil, 0, proc), body: body}, nil
}

// Append emits the complete call message for (xid, arg) onto bs:
// byte-identical to CallTemplate.AppendCall followed by the argument
// plan's Encode, in one pass. arg must point at a value of the argument
// codec's Go type (ignored when the codec was compiled void).
//
//specrpc:hotpath
func (cc *CallCodec) Append(bs *xdr.BufStream, xid uint32, arg unsafe.Pointer) error {
	return appendFused(bs, cc.hdr, rpcmsg.CallXIDOffset, &cc.body, xid, arg)
}

// ---------------------------------------------------------------------------
// Reply side

// ReplyCodec is a compiled whole-reply codec for one (reply template,
// result codec) pair: the server encodes accepted-success replies
// through it in one pass, and the client decodes results straight out
// of the raw reply bytes. A nil template compiles a decode-only codec
// (the client never emits replies). Immutable and safe for concurrent
// use.
type ReplyCodec struct {
	hdr  []byte // success template bytes, XID zeroed; nil when decode-only
	body fusedBody
	resc *Codec // nil for void results
}

// NewReplyCodec fuses tmpl and the result codec. A nil results codec
// marks a void result side; a Generic-mode codec is rejected.
func NewReplyCodec(tmpl *rpcmsg.ReplyTemplate, results *Codec) (*ReplyCodec, error) {
	body, err := fuseBody(results)
	if err != nil {
		return nil, err
	}
	rc := &ReplyCodec{body: body, resc: results}
	if tmpl != nil {
		rc.hdr = tmpl.AppendReply(nil, 0)
	}
	return rc, nil
}

// errDecodeOnly reports an encode call on a ReplyCodec built without a
// template: a wiring mistake, constant by nature, and returned from the
// hot append path where fmt.Errorf would allocate per call.
var errDecodeOnly = errors.New("wire: reply codec is decode-only")

// Append emits the complete accepted-success reply for (xid, res) onto
// bs: byte-identical to ReplyTemplate.AppendReply followed by the
// result plan's Encode, in one pass.
//
//specrpc:hotpath
func (rc *ReplyCodec) Append(bs *xdr.BufStream, xid uint32, res unsafe.Pointer) error {
	if rc.hdr == nil {
		return errDecodeOnly
	}
	return appendFused(bs, rc.hdr, rpcmsg.ReplyXIDOffset, &rc.body, xid, res)
}

// AppendHeader emits the success header alone (a void or nil result
// body), byte-identical to ReplyTemplate.AppendReply.
func (rc *ReplyCodec) AppendHeader(bs *xdr.BufStream, xid uint32) error {
	if rc.hdr == nil {
		return errDecodeOnly
	}
	w := bs.Extend(len(rc.hdr))
	copy(w, rc.hdr)
	binary.BigEndian.PutUint32(w[rpcmsg.ReplyXIDOffset:], xid)
	return nil
}

// DecodeReply recognizes an accepted-success reply at fixed offsets and
// decodes the results directly from the raw message into the value at
// res, with no intermediate handle. It reports handled=false — and
// decodes nothing — for any other reply shape (error statuses, denials,
// ill-formed headers), sending the caller to the generic interpretive
// path for the full failure detail; the accept set of the fixed-offset
// test matches the generic walker's exactly (fuzz-asserted).
//
//specrpc:hotpath
func (rc *ReplyCodec) DecodeReply(raw []byte, res unsafe.Pointer) (bool, error) {
	body, ok := rpcmsg.AcceptedSuccessBody(raw)
	if !ok {
		return false, nil
	}
	if rc.resc == nil {
		return true, nil
	}
	return true, rc.resc.DecodeBody(body, res)
}

// ---------------------------------------------------------------------------
// Typed facades

// CallPlan is the typed façade over a CallCodec, mirroring Plan[T]:
// a whole-call marshal plan for argument values of type A.
type CallPlan[A any] struct {
	cc *CallCodec
}

// NewCallPlan fuses the template and the argument plan for proc.
func NewCallPlan[A any](tmpl *rpcmsg.CallTemplate, proc uint32, args *Plan[A]) (*CallPlan[A], error) {
	var argc *Codec
	if args != nil {
		argc = args.Codec()
	}
	cc, err := NewCallCodec(tmpl, proc, argc)
	if err != nil {
		return nil, err
	}
	return &CallPlan[A]{cc: cc}, nil
}

// AppendCall emits the complete call message for (xid, arg) onto bs.
func (p *CallPlan[A]) AppendCall(bs *xdr.BufStream, xid uint32, arg *A) error {
	return p.cc.Append(bs, xid, unsafe.Pointer(arg))
}

// Codec exposes the untyped fused codec.
func (p *CallPlan[A]) Codec() *CallCodec { return p.cc }

// ReplyPlan is the typed façade over a ReplyCodec: a whole-reply
// marshal plan for result values of type R.
type ReplyPlan[R any] struct {
	rc *ReplyCodec
}

// NewReplyPlan fuses the template and the result plan. A nil template
// compiles a decode-only plan.
func NewReplyPlan[R any](tmpl *rpcmsg.ReplyTemplate, results *Plan[R]) (*ReplyPlan[R], error) {
	var resc *Codec
	if results != nil {
		resc = results.Codec()
	}
	rc, err := NewReplyCodec(tmpl, resc)
	if err != nil {
		return nil, err
	}
	return &ReplyPlan[R]{rc: rc}, nil
}

// AppendReply emits the complete accepted-success reply for (xid, res).
func (p *ReplyPlan[R]) AppendReply(bs *xdr.BufStream, xid uint32, res *R) error {
	return p.rc.Append(bs, xid, unsafe.Pointer(res))
}

// DecodeReply decodes an accepted-success reply's results into *res,
// reporting handled=false for any other reply shape.
func (p *ReplyPlan[R]) DecodeReply(raw []byte, res *R) (bool, error) {
	return p.rc.DecodeReply(raw, unsafe.Pointer(res))
}

// Codec exposes the untyped fused codec.
func (p *ReplyPlan[R]) Codec() *ReplyCodec { return p.rc }
