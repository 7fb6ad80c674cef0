// Package interop holds the differential against the original: libtirpc,
// the living descendant of the Sun RPC sources whose generic layers the
// paper specialized. Its test runs the system rpcgen on rich.x and
// layout.x, builds a small C peer over rpcgen's xdr_* routines with
// gcc and -ltirpc, and exchanges XDR bytes with it: every type the two
// packages' Codecs list — the unions and optional data, the linked
// lists (which rpcgen's C decodes by recursion through xdr_pointer and
// every Go rung as a loop), and the types whose compiled decoders carve
// their parts from one slab — encoded by
// each Go rung, must decode in C and encode again to the same bytes,
// values C encodes must decode in Go to the same value, and both sides
// must accept or refuse hostile counts, discriminants, flags and
// truncations alike.
//
// The package has no code of its own; run it with `make interop`. The
// test skips, saying why, where gcc, rpcgen or the tirpc headers are
// missing, and fails instead when SPECRPC_INTEROP=require is set, as CI
// sets it.
package interop
