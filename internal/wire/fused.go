package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// This file holds the whole-message codecs: the per-connection header
// template (rpcmsg) and the per-type marshal plan (this package) stop
// being stitched together at run time and become one residual routine
// per procedure — the paper's "optimized" configuration, where clnt_call
// through argument encode is a single specialized routine.
//
// There is one codec type per direction, CallCodec and ReplyCodec, and
// its constructor owns the ladder of marshaling engines: it takes any
// plan and decides once, at construction, which rung the messages of
// that procedure run on —
//
//   - compiled: the straight-line routines rpcgen emitted for the plan,
//     which a generated package hangs on the plan's Codec from its init
//     (RegisterCompiled);
//   - fused: a view of the plan's flat program — one bounds reservation
//     covers the header image plus every leading fixed-size instruction,
//     and only the variable-sized tail still pays a reservation per
//     instruction;
//   - generic: for a Generic-mode plan, which has no flat program, the
//     header image and then the interpretive walker: a body whose fixed
//     prefix is empty.
//
// Rung reports the choice. The XID and procedure number live at fixed
// offsets inside the header image on every rung (the procedure is
// stamped at construction, the XID per call), the client decodes results
// straight out of the raw reply bytes with no intermediate XDR handle,
// and every rung emits the same bytes and the same errors; the
// differential fuzz tests keep that true.

// The emitted routines stamp the XID at offset 0 of the message image;
// that is only correct while both header layouts keep it there.
var _ = [1]struct{}{}[rpcmsg.CallXIDOffset|rpcmsg.ReplyXIDOffset]

// Rung names the marshaling engine a whole-message codec runs on.
type Rung uint8

// The rungs, lowest first.
const (
	// RungGeneric is the interpretive tree-walker behind the header image.
	RungGeneric Rung = iota + 1
	// RungFused is the plan's flat program executed behind, and partly
	// inside, the header's reservation. A void side is an empty program.
	RungFused
	// RungCompiled is the pair of routines rpcgen emitted for the plan.
	RungCompiled
)

// String names the rung as the documents do.
func (r Rung) String() string {
	switch r {
	case RungGeneric:
		return "generic"
	case RungFused:
		return "fused"
	case RungCompiled:
		return "compiled"
	default:
		return fmt.Sprintf("rung(%d)", uint8(r))
	}
}

// ---------------------------------------------------------------------------
// Emitted routines

// Compiled is one pair of emitted routines for values of type T: Append
// writes hdr + XID + value as one straight-line pass, Decode reads a
// value back out of raw body bytes.
type Compiled[T any] struct {
	Append func(bs *xdr.BufStream, hdr []byte, xid uint32, v *T) error
	Decode func(body []byte, v *T) error
}

// emittedPair is a registered pair with T erased, once, at registration,
// so the hot path pays no per-call conversion beyond the pointer cast.
type emittedPair struct {
	app func(bs *xdr.BufStream, hdr []byte, xid uint32, p unsafe.Pointer) error
	dec func(body []byte, p unsafe.Pointer) error
}

// RegisterCompiled hangs emitted routines on p's codec; generated
// packages call it from init, before any whole-message codec is built
// over the plan (a codec built earlier keeps the rung it chose).
// Registering again replaces the pair. A pair missing a half registers
// nothing, so a codec's two directions are always on the same rung.
func RegisterCompiled[T any](p *Plan[T], c Compiled[T]) {
	if p == nil || c.Append == nil || c.Decode == nil {
		return
	}
	p.c.emitted = &emittedPair{
		app: func(bs *xdr.BufStream, hdr []byte, xid uint32, q unsafe.Pointer) error {
			return c.Append(bs, hdr, xid, (*T)(q))
		},
		dec: func(body []byte, q unsafe.Pointer) error {
			return c.Decode(body, (*T)(q))
		},
	}
}

// BodyDecoder is the decode side of the ladder: the routine that reads
// one whole argument or result body into a value of c's Go type, on the
// rung c reaches — the emitted decoder registered for c, else
// DecodeBody (the plan executor, or for a Generic-mode codec the
// walker). A nil codec, a void side, has none.
func (c *Codec) BodyDecoder() func(body []byte, p unsafe.Pointer) error {
	switch {
	case c == nil:
		return nil
	case c.emitted != nil:
		return c.emitted.dec
	default:
		return c.DecodeBody
	}
}

// ---------------------------------------------------------------------------
// The encode side of the ladder

// msgBody is the argument or result half of a whole-message codec on the
// rung chosen for it: the emitted routine (app), or a view of the
// codec's own flat program — not a second compilation of it — or the
// codec's walker. On the fused rung the leading fixed-size instructions
// are stored straight into the header's bounds reservation and the rest,
// from the first variable-sized instruction on, runs through the plan
// executor; both halves store through putRun, so fused bytes equal plan
// bytes by construction.
type msgBody struct {
	rung      Rung
	app       func(bs *xdr.BufStream, hdr []byte, xid uint32, p unsafe.Pointer) error
	prog      []instr // the codec's program, shared
	nfixed    int     // leading fixed-size instructions: prog[:nfixed]
	fixedWire int     // wire bytes prog[:nfixed] covers
	walker    *Codec  // the Generic-mode codec whose tree is the whole body
}

// bodyOf chooses c's rung. A nil codec (a void side) is the empty fused
// body.
func bodyOf(c *Codec) msgBody {
	switch {
	case c == nil:
		return msgBody{rung: RungFused}
	case c.emitted != nil:
		return msgBody{rung: RungCompiled, app: c.emitted.app}
	case c.mode == Generic:
		return msgBody{rung: RungGeneric, walker: c}
	}
	b := msgBody{rung: RungFused, prog: c.prog}
	for b.nfixed < len(b.prog) && b.prog[b.nfixed].op.fixed() {
		b.fixedWire += b.prog[b.nfixed].wire
		b.nfixed++
	}
	return b
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

// append emits one whole message. Below the compiled rung a single
// Extend covers the header image plus the fixed prefix of the program,
// the XID is stamped at its fixed offset, and the tail continues on the
// same buffer.
//
//specrpc:hotpath
func (b *msgBody) append(bs *xdr.BufStream, hdr []byte, xidOff int, xid uint32, p unsafe.Pointer) error {
	if b.app != nil {
		return b.app(bs, hdr, xid, p)
	}
	w := bs.Extend(len(hdr) + b.fixedWire)
	copy(w, hdr)
	binary.BigEndian.PutUint32(w[xidOff:], xid)
	if b.walker != nil {
		return b.walker.encodeBodyGeneric(bs, p)
	}
	encodeFixed(w[len(hdr):], b.prog[:b.nfixed], p)
	return encodeProg(bs, b.prog[b.nfixed:], p)
}

// ---------------------------------------------------------------------------
// Call side

// CallCodec is the whole-call encoder for one (header template,
// procedure, argument codec) triple: the image of everything a client
// sends for that procedure except the XID and the argument bytes, and
// the engine that writes those. Immutable and safe for concurrent use.
type CallCodec struct {
	hdr  []byte // template bytes with the procedure stamped, XID zeroed
	body msgBody
}

// NewCallCodec joins tmpl and the argument codec for proc on the best
// rung args reaches. A nil args codec marks a void argument side. The
// one failure is a nil template.
func NewCallCodec(tmpl *rpcmsg.CallTemplate, proc uint32, args *Codec) (*CallCodec, error) {
	if tmpl == nil {
		return nil, errors.New("wire: nil call template")
	}
	return &CallCodec{hdr: tmpl.AppendCall(nil, 0, proc), body: bodyOf(args)}, nil
}

// Rung reports the engine the codec's constructor chose.
func (cc *CallCodec) Rung() Rung { return cc.body.rung }

// Append emits the complete call message for (xid, arg) onto bs:
// byte-identical to CallTemplate.AppendCall followed by the argument
// plan's Encode, in one pass. arg must point at a value of the argument
// codec's Go type (ignored when the codec was built void).
//
//specrpc:hotpath
func (cc *CallCodec) Append(bs *xdr.BufStream, xid uint32, arg unsafe.Pointer) error {
	return cc.body.append(bs, cc.hdr, rpcmsg.CallXIDOffset, xid, arg)
}

// ---------------------------------------------------------------------------
// Reply side

// ReplyCodec is the whole-reply codec for one (reply template, result
// codec) pair: the server encodes accepted-success replies through it
// in one pass, and the client decodes results straight out of the raw
// reply bytes. A nil template builds a decode-only codec (the client
// never emits replies). Immutable and safe for concurrent use.
type ReplyCodec struct {
	hdr  []byte // success template bytes, XID zeroed; nil when decode-only
	body msgBody
	dec  func(body []byte, p unsafe.Pointer) error // nil for void results
}

// NewReplyCodec joins tmpl and the result codec on the best rung
// results reaches, both directions alike. A nil results codec marks a
// void result side.
func NewReplyCodec(tmpl *rpcmsg.ReplyTemplate, results *Codec) *ReplyCodec {
	rc := &ReplyCodec{body: bodyOf(results), dec: results.BodyDecoder()}
	if tmpl != nil {
		rc.hdr = tmpl.AppendReply(nil, 0)
	}
	return rc
}

// Rung reports the engine the codec's constructor chose.
func (rc *ReplyCodec) Rung() Rung { return rc.body.rung }

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
	return rc.body.append(bs, rc.hdr, rpcmsg.ReplyXIDOffset, xid, res)
}

// AppendHeader emits the success header alone (a void or nil result
// body), byte-identical to ReplyTemplate.AppendReply.
func (rc *ReplyCodec) AppendHeader(bs *xdr.BufStream, xid uint32) error {
	if rc.hdr == nil {
		return errDecodeOnly
	}
	var void msgBody
	return void.append(bs, rc.hdr, rpcmsg.ReplyXIDOffset, xid, nil)
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
	if rc.dec == nil {
		return true, nil
	}
	return true, rc.dec(body, res)
}

// ---------------------------------------------------------------------------
// Typed facades

// CallPlan is the typed façade over a CallCodec, mirroring Plan[T]:
// a whole-call marshal plan for argument values of type A.
type CallPlan[A any] struct {
	cc *CallCodec
}

// NewCallPlan joins the template and the argument plan for proc.
func NewCallPlan[A any](tmpl *rpcmsg.CallTemplate, proc uint32, args *Plan[A]) (*CallPlan[A], error) {
	cc, err := NewCallCodec(tmpl, proc, args.Codec())
	if err != nil {
		return nil, err
	}
	return &CallPlan[A]{cc: cc}, nil
}

// AppendCall emits the complete call message for (xid, arg) onto bs.
func (p *CallPlan[A]) AppendCall(bs *xdr.BufStream, xid uint32, arg *A) error {
	return p.cc.Append(bs, xid, unsafe.Pointer(arg))
}

// Codec exposes the untyped whole-call codec.
func (p *CallPlan[A]) Codec() *CallCodec { return p.cc }

// ReplyPlan is the typed façade over a ReplyCodec: a whole-reply
// marshal plan for result values of type R.
type ReplyPlan[R any] struct {
	rc *ReplyCodec
}

// NewReplyPlan joins the template and the result plan. A nil template
// builds a decode-only plan. The error is always nil; the signature is
// NewCallPlan's, which the repo benchmark holds the pair to.
func NewReplyPlan[R any](tmpl *rpcmsg.ReplyTemplate, results *Plan[R]) (*ReplyPlan[R], error) {
	return &ReplyPlan[R]{rc: NewReplyCodec(tmpl, results.Codec())}, nil
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

// Codec exposes the untyped whole-reply codec.
func (p *ReplyPlan[R]) Codec() *ReplyCodec { return p.rc }
