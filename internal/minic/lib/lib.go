// Package rpclib holds the Sun RPC marshaling micro-layers transliterated
// into mini-C: the specialization subject of the whole reproduction. The
// code preserves the exact layering of the paper's Figure 1 trace —
//
//	clntudp_call
//	  XDR_PUTLONG            (ops-table macro → indirect call)
//	    xdrmem_putlong       (overflow check + store)
//	  xdr_pair / xdr_intarray (stubs generated by rpcgen)
//	    xdr_int → xdr_long   (encode/decode dispatch)
//	      XDR_PUTLONG → xdrmem_putlong
//
// — so every interpretation layer the paper's §3 eliminates is present to
// be eliminated. The package also provides the binding-time divisions
// (tempo.ObjSpec values) matching the paper's declarations: operation
// mode, ops table, and buffer geometry static; buffer pointer and user
// data dynamic.
package rpclib

import (
	"sync"

	"specrpc/internal/minic"
	"specrpc/internal/tempo"
)

// XDR operation codes, matching the xdr_op enum values used in Source.
const (
	OpEncode = 1
	OpDecode = 2
	OpFree   = 3
)

// RPC constants baked into the header marshalers.
const (
	MsgCall    = 0
	MsgReply   = 1
	RPCVersion = 2
	AuthNull   = 0
)

// HeaderBytes is the encoded size of a call header with null credentials:
// xid, msg type, rpcvers, prog, vers, proc, cred flavor+len, verf
// flavor+len = 10 words.
const HeaderBytes = 40

// ReplyHeaderBytes is the encoded size of a success reply header: xid,
// msg type, reply stat, verf flavor+len, accept stat = 6 words.
const ReplyHeaderBytes = 24

// Source is the mini-C library. See the package comment for its shape.
const Source = `
/* ------------------------------------------------------------------ */
/* XDR handle: the C struct XDR with its micro-layer ops table.        */

struct xdrops {
    funcptr x_putlong;
    funcptr x_getlong;
    funcptr x_putbytes;
    funcptr x_getbytes;
};

struct xdrbuf {
    int x_op;               /* XDR_ENCODE=1, XDR_DECODE=2, XDR_FREE=3 */
    struct xdrops* x_ops;   /* stream operations (xdrmem here) */
    char* x_private;        /* current position in the buffer */
    char* x_base;           /* buffer start */
    int x_handy;            /* bytes remaining: the overflow counter */
};

/* The two-int argument record of the paper's rmin example. */
struct pair {
    int int1;
    int int2;
};

/* Buffer micro-operations (the casted pointer stores of the original). */
extern void stlong(char* p, int v);
extern int ldlong(char* p);
extern void stbyte(char* p, int v);
extern int ldbyte(char* p);
extern void memcopy(char* dst, char* src, int n);
extern void bzero(char* p, int n);

/* Dynamic externs standing for the transport syscalls. */
extern int net_send(char* base, int len);
extern int net_recv(char* base, int maxlen);
extern int run_service(int* args, int nargs, int* res, int nres);

/* ------------------------------------------------------------------ */
/* xdrmem: marshaling over contiguous memory (xdr_mem.c).              */

int xdrmem_putlong(struct xdrbuf* xdrs, int* lp)
{
    if ((xdrs->x_handy -= 4) < 0) {
        return 0;
    }
    stlong(xdrs->x_private, *lp);
    xdrs->x_private += 4;
    return 1;
}

int xdrmem_getlong(struct xdrbuf* xdrs, int* lp)
{
    if ((xdrs->x_handy -= 4) < 0) {
        return 0;
    }
    *lp = ldlong(xdrs->x_private);
    xdrs->x_private += 4;
    return 1;
}

int xdrmem_putbytes(struct xdrbuf* xdrs, char* addr, int len)
{
    if ((xdrs->x_handy -= len) < 0) {
        return 0;
    }
    memcopy(xdrs->x_private, addr, len);
    xdrs->x_private += len;
    return 1;
}

int xdrmem_getbytes(struct xdrbuf* xdrs, char* addr, int len)
{
    if ((xdrs->x_handy -= len) < 0) {
        return 0;
    }
    memcopy(addr, xdrs->x_private, len);
    xdrs->x_private += len;
    return 1;
}

/* The XDR_PUTLONG / XDR_GETLONG macros: indirect ops-table dispatch.   */

int XDR_PUTLONG(struct xdrbuf* xdrs, int* lp)
{
    return xdrs->x_ops->x_putlong(xdrs, lp);
}

int XDR_GETLONG(struct xdrbuf* xdrs, int* lp)
{
    return xdrs->x_ops->x_getlong(xdrs, lp);
}

/* ------------------------------------------------------------------ */
/* Generic primitives (xdr.c): mode dispatch per call (paper Fig. 2).  */

int xdr_long(struct xdrbuf* xdrs, int* lp)
{
    if (xdrs->x_op == 1) {
        return XDR_PUTLONG(xdrs, lp);
    }
    if (xdrs->x_op == 2) {
        return XDR_GETLONG(xdrs, lp);
    }
    if (xdrs->x_op == 3) {
        return 1;
    }
    return 0;
}

/* xdr_int: the machine-dependent integer-size switch of Figure 1;
   on 32-bit targets an int is a long. */
int xdr_int(struct xdrbuf* xdrs, int* ip)
{
    return xdr_long(xdrs, ip);
}

int xdr_u_int(struct xdrbuf* xdrs, int* up)
{
    return xdr_long(xdrs, up);
}

int xdr_enum(struct xdrbuf* xdrs, int* ep)
{
    return xdr_long(xdrs, ep);
}

int xdr_bool(struct xdrbuf* xdrs, int* bp)
{
    return xdr_long(xdrs, bp);
}

/* xdr_opaque: fixed-length opaque data plus zero padding to 4 bytes. */
int xdr_opaque(struct xdrbuf* xdrs, char* cp, int cnt)
{
    char crud[4];
    int pad;
    if (cnt == 0) {
        return 1;
    }
    pad = (4 - cnt % 4) % 4;
    if (xdrs->x_op == 1) {
        if (!xdrmem_putbytes(xdrs, cp, cnt)) {
            return 0;
        }
        if (pad == 0) {
            return 1;
        }
        bzero(crud, 4);
        return xdrmem_putbytes(xdrs, crud, pad);
    }
    if (xdrs->x_op == 2) {
        if (!xdrmem_getbytes(xdrs, cp, cnt)) {
            return 0;
        }
        if (pad == 0) {
            return 1;
        }
        return xdrmem_getbytes(xdrs, crud, pad);
    }
    if (xdrs->x_op == 3) {
        return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* rpcgen-style stubs.                                                  */

/* The paper's Figure 4: encode the two ints of rmin's argument pair.  */
int xdr_pair(struct xdrbuf* xdrs, struct pair* objp)
{
    if (!xdr_int(xdrs, &objp->int1)) {
        return 0;
    }
    if (!xdr_int(xdrs, &objp->int2)) {
        return 0;
    }
    return 1;
}

/* Counted int array, the generic interpretation layer of xdr_array:
   marshal the element count, then each element through the full
   primitive stack. elproc is the per-element routine (xdrproc_t). */
int xdr_intarray(struct xdrbuf* xdrs, int* addr, int* sizep, int maxsize, funcptr elproc)
{
    int c;
    int i;
    int* target;
    c = *sizep;
    if (c > maxsize && xdrs->x_op != 3) {
        return 0;
    }
    if (!xdr_u_int(xdrs, &c)) {
        return 0;
    }
    *sizep = c;
    if (c > maxsize) {
        return 0;
    }
    target = addr;
    for (i = 0; i < c; i++) {
        if (!elproc(xdrs, target)) {
            return 0;
        }
        target = target + 1;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Client side (clnt_udp.c essentials).                                 */

/* Marshal the RPC call header: xid, CALL, RPCVERS, prog, vers, proc,
   null credential, null verifier (10 words). The proc identifier is the
   paper's example of a static integer marshaled through the same
   routines as dynamic data (context sensitivity, section 4). */
int marshal_callhdr(struct xdrbuf* xdrs, int xid, int prog, int vers, int proc)
{
    int tmp;
    tmp = xid;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* CALL */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 2; /* RPC version */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = prog;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = vers;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = proc;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* cred flavor AUTH_NULL */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* cred length */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* verf flavor */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* verf length */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    return 1;
}

/* Encode one full call message: header then the int-array argument.   */
int marshal_call(struct xdrbuf* xdrs, int xid, int prog, int vers, int proc, int* args, int nargs, int maxargs)
{
    int cnt;
    if (!marshal_callhdr(xdrs, xid, prog, vers, proc)) {
        return 0;
    }
    cnt = nargs;
    if (!xdr_intarray(xdrs, args, &cnt, maxargs, xdr_int)) {
        return 0;
    }
    return 1;
}

/* The call prefix alone: header plus argument count. Used by the
   bounded-unrolling pipeline (Table 4), whose driver loop lives outside
   the specialized chunk body, as in the paper's manual transformation. */
int marshal_call_prefix(struct xdrbuf* xdrs, int xid, int prog, int vers, int proc, int nargs)
{
    int cnt;
    if (!marshal_callhdr(xdrs, xid, prog, vers, proc)) {
        return 0;
    }
    cnt = nargs;
    if (!xdr_u_int(xdrs, &cnt)) {
        return 0;
    }
    return 1;
}

/* Marshal count ints starting at base through the full primitive
   stack; the unit of bounded unrolling. */
int marshal_chunk(struct xdrbuf* xdrs, int* base, int count)
{
    int i;
    int* target;
    target = base;
    for (i = 0; i < count; i++) {
        if (!xdr_int(xdrs, target)) {
            return 0;
        }
        target = target + 1;
    }
    return 1;
}

/* Decode a reply header and validate it against the call (the dynamic
   soundness tests of section 3.4 that must survive specialization).   */
int unmarshal_replyhdr(struct xdrbuf* xdrs, int xid)
{
    int tmp;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != xid) { return 0; }            /* stale or foreign reply */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != 1) { return 0; }              /* not a REPLY */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != 0) { return 0; }              /* MSG_DENIED */
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* verf flavor */
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* verf length */
    if (tmp != 0) { return 0; }              /* nonempty verifier */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != 0) { return 0; }              /* accept_stat != SUCCESS */
    return 1;
}

/* Decode the reply results: header validation then the result array.
   This is the unguarded version: the decoded element count stays
   dynamic, so the decode loop cannot be unrolled. */
int unmarshal_reply(struct xdrbuf* xdrs, int xid, int* res, int* nres, int maxres)
{
    if (!unmarshal_replyhdr(xdrs, xid)) {
        return 0;
    }
    if (!xdr_intarray(xdrs, res, nres, maxres, xdr_int)) {
        return 0;
    }
    return 1;
}

/* The paper's section 6.2 rewrite: guard the dynamic reply length with
   its statically expected value. In the "then" branch the length is
   static, so the decode loop unrolls; the "else" branch keeps the
   general (dynamic) code for ill-formed replies. */
int unmarshal_reply_guarded(struct xdrbuf* xdrs, int xid, int* res, int* nres, int maxres, int expected_nres)
{
    int cnt;
    if (!unmarshal_replyhdr(xdrs, xid)) {
        return 0;
    }
    if (!xdr_u_int(xdrs, &cnt)) {
        return 0;
    }
    if (cnt == expected_nres) {
        cnt = expected_nres;
        *nres = cnt;
        {
            int i;
            int* target;
            target = res;
            for (i = 0; i < cnt; i++) {
                if (!xdr_int(xdrs, target)) {
                    return 0;
                }
                target = target + 1;
            }
        }
        return 1;
    }
    if (cnt > maxres) {
        return 0;
    }
    *nres = cnt;
    {
        int j;
        int* tgt;
        tgt = res;
        for (j = 0; j < cnt; j++) {
            if (!xdr_int(xdrs, tgt)) {
                return 0;
            }
            tgt = tgt + 1;
        }
    }
    return 1;
}

/* Strict guarded decode for the fixed-shape benchmark service: a reply
   whose element count differs from the expected one is rejected, so the
   whole success path is static and the decode loop unrolls. */
int unmarshal_reply_strict(struct xdrbuf* xdrs, int xid, int* res, int expected_nres)
{
    int cnt;
    if (!unmarshal_replyhdr(xdrs, xid)) {
        return 0;
    }
    if (!xdr_u_int(xdrs, &cnt)) {
        return 0;
    }
    if (cnt == expected_nres) {
        cnt = expected_nres;
        {
            int i;
            int* target;
            target = res;
            for (i = 0; i < cnt; i++) {
                if (!xdr_int(xdrs, target)) {
                    return 0;
                }
                target = target + 1;
            }
        }
        return 1;
    }
    return 0;
}

/* One complete client call: encode, send, receive, decode (the round
   trip of Table 2, minus the wire itself which is an extern).         */
int clntudp_call(struct xdrbuf* xout, struct xdrbuf* xin, int xid, int prog, int vers, int proc, int* args, int nargs, int maxargs, int* res, int* nres, int maxres)
{
    int outlen;
    int inlen;
    if (!marshal_call(xout, xid, prog, vers, proc, args, nargs, maxargs)) {
        return 0;
    }
    outlen = 40 + 4 + 4 * nargs;
    if (net_send(xout->x_base, outlen) < 0) {
        return 0;
    }
    inlen = net_recv(xin->x_base, 24 + 4 + 4 * maxres);
    if (inlen < 28) {
        return 0;
    }
    if (!unmarshal_reply(xin, xid, res, nres, maxres)) {
        return 0;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* Server side (svc_udp.c essentials).                                  */

/* Decode a call header, verifying program and version; returns the
   procedure number through procp, or 0 on failure. The xid is echoed
   through xidp for the reply. */
int svc_decodehdr(struct xdrbuf* xdrs, int prog, int vers, int* xidp, int* procp)
{
    int tmp;
    if (!xdr_int(xdrs, xidp)) { return 0; }
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != 0) { return 0; }              /* not a CALL */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != 2) { return 0; }              /* RPC version */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != prog) { return 0; }           /* PROG_UNAVAIL */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    if (tmp != vers) { return 0; }           /* PROG_MISMATCH */
    if (!xdr_int(xdrs, procp)) { return 0; }
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* cred flavor */
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* cred length */
    if (tmp != 0) { return 0; }
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* verf flavor */
    if (!xdr_int(xdrs, &tmp)) { return 0; }  /* verf length */
    if (tmp != 0) { return 0; }
    return 1;
}

/* Marshal a success reply header echoing the xid (6 words). */
int svc_replyhdr(struct xdrbuf* xdrs, int xid)
{
    int tmp;
    tmp = xid;
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 1; /* REPLY */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* MSG_ACCEPTED */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* verf flavor */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* verf length */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    tmp = 0; /* SUCCESS */
    if (!xdr_int(xdrs, &tmp)) { return 0; }
    return 1;
}

/* One complete server dispatch for the int-array echo service used by
   the paper's benchmark: decode the call, run the service, encode the
   reply. The guarded argument count makes the hot path static.        */
int svcudp_dispatch(struct xdrbuf* xin, struct xdrbuf* xout, int prog, int vers, int expected_nargs, int maxargs, int* args, int* res)
{
    int xid;
    int proc;
    int nargs;
    int nres;
    if (!svc_decodehdr(xin, prog, vers, &xid, &proc)) {
        return 0;
    }
    if (!xdr_u_int(xin, &nargs)) {
        return 0;
    }
    if (nargs == expected_nargs) {
        nargs = expected_nargs;
        {
            int i;
            int* target;
            target = args;
            for (i = 0; i < nargs; i++) {
                if (!xdr_int(xin, target)) {
                    return 0;
                }
                target = target + 1;
            }
        }
    } else {
        return 0;
    }
    nres = run_service(args, nargs, res, maxargs);
    if (nres != maxargs) {
        return 0;  /* fixed-shape service must fill exactly maxargs */
    }
    if (!svc_replyhdr(xout, xid)) {
        return 0;
    }
    {
        int cnt;
        cnt = maxargs;
        if (!xdr_intarray(xout, res, &cnt, maxargs, xdr_int)) {
            return 0;
        }
    }
    return 1;
}
`

var (
	parseOnce sync.Once
	parsed    *minic.Program
	parseErr  error
)

// Program returns a freshly cloned, checked copy of the library; callers
// may mutate it freely.
func Program() (*minic.Program, error) {
	parseOnce.Do(func() {
		p, err := minic.Parse(Source)
		if err != nil {
			parseErr = err
			return
		}
		if err := minic.Check(p); err != nil {
			parseErr = err
			return
		}
		parsed = p
	})
	if parseErr != nil {
		return nil, parseErr
	}
	clone := parsed.Clone()
	if err := minic.Check(clone); err != nil {
		return nil, err
	}
	return clone, nil
}

// MustProgram returns the library or panics; for tests and tools whose
// inputs are compile-time constants.
func MustProgram() *minic.Program {
	p, err := Program()
	if err != nil {
		panic(err)
	}
	return p
}

// OpsSpec is the binding-time description of the xdrmem ops table: all
// four function pointers are static.
func OpsSpec() *tempo.ObjSpec {
	return &tempo.ObjSpec{
		StructName: "xdrops",
		Fields: map[string]any{
			"x_putlong":  "xdrmem_putlong",
			"x_getlong":  "xdrmem_getlong",
			"x_putbytes": "xdrmem_putbytes",
			"x_getbytes": "xdrmem_getbytes",
		},
	}
}

// XDRSpec is the paper's division of the XDR handle: operation mode, ops
// table, and remaining-space counter static; buffer pointers dynamic.
func XDRSpec(op int, handy int) *tempo.ObjSpec {
	return &tempo.ObjSpec{
		StructName: "xdrbuf",
		Fields: map[string]any{
			"x_op":    int64(op),
			"x_ops":   OpsSpec(),
			"x_handy": int64(handy),
		},
	}
}
