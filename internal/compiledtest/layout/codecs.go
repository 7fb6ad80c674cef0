package layout

import "specrpc/internal/wire"

// Codecs maps each type of layout.x that is or holds a union or optional
// data to the codec of its package plan, the one rpcgen registered its
// emitted routines on (see compiledtest.Codecs).
func Codecs() map[string]*wire.Codec {
	return map[string]*wire.Codec{
		"choice":   planChoice.Codec(),
		"tinted":   planTinted.Codec(),
		"optinner": planOptinner.Codec(),
		"unions":   planUnions.Codec(),
	}
}
