package compiledtest

import "specrpc/internal/wire"

// Codecs maps the types of rich.x that the libtirpc differential
// (internal/interop) exchanges — those holding a union or optional data,
// the kitchen-sink sample, whose compiled decoder carves its parts from
// one slab, and numbers, whose decoder allocates its one part as it
// always has — to the codec of its package plan, the one rpcgen
// registered its emitted routines on. Its WireType and GoType are the
// generated description and type, which is all a test outside the
// package needs to build the other two rungs over them.
func Codecs() map[string]*wire.Codec {
	return map[string]*wire.Codec{
		"shape":         planShape.Codec(),
		"lookup_result": planLookupResult.Codec(),
		"sample":        planSample.Codec(),
		"numbers":       planNumbers.Codec(),
	}
}
