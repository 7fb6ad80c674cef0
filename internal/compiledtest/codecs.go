package compiledtest

import "specrpc/internal/wire"

// Codecs maps each type of rich.x that holds a union or optional data to
// the codec of its package plan, the one rpcgen registered its emitted
// routines on. Its WireType and GoType are the generated description and
// type, which is all a test outside the package needs to build the other
// two rungs over them (the libtirpc differential, internal/interop,
// does).
func Codecs() map[string]*wire.Codec {
	return map[string]*wire.Codec{
		"shape":         planShape.Codec(),
		"lookup_result": planLookupResult.Codec(),
	}
}
