package layout

import "specrpc/internal/wire"

// Codecs maps the types of layout.x that the libtirpc differential
// exchanges — each that is or holds a union or optional data, the lists,
// and arrays and names, whose compiled decoders carve strings and
// pointer-free arrays from one slab — to the codec of its package plan,
// the one rpcgen registered its emitted routines on (see
// compiledtest.Codecs).
func Codecs() map[string]*wire.Codec {
	return map[string]*wire.Codec{
		"choice":   planChoice.Codec(),
		"tinted":   planTinted.Codec(),
		"optinner": planOptinner.Codec(),
		"unions":   planUnions.Codec(),
		"arrays":   planArrays.Codec(),
		"names":    planNames.Codec(),
		"intlist":  planIntlist.Codec(),
		"exports":  planExports.Codec(),
	}
}
