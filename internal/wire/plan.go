package wire

import (
	"fmt"
	"reflect"
	"unsafe"

	"specrpc/internal/xdr"
)

// Plan is the typed façade over a compiled Codec: a marshal plan for Go
// values of type T. Plans are safe for concurrent use and, once their
// package's init has run, immutable (see Codec on what init may add);
// the intended pattern is one package-level plan per message type,
// compiled once (generated stubs do exactly that).
type Plan[T any] struct {
	c *Codec
}

// NewPlan compiles t against T in the given mode.
func NewPlan[T any](t *Type, mode Mode) (*Plan[T], error) {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	c, err := Compile(t, rt, mode)
	if err != nil {
		return nil, err
	}
	return &Plan[T]{c: c}, nil
}

// MustPlan is NewPlan panicking on error; for package-level plan
// variables in generated code, where a mismatch is a build-time bug.
func MustPlan[T any](t *Type, mode Mode) *Plan[T] {
	p, err := NewPlan[T](t, mode)
	if err != nil {
		panic(fmt.Sprintf("wire: %v", err))
	}
	return p
}

// Marshal encodes, decodes, or frees *v according to the handle mode. It
// has the shape of a generated xdr_* routine, so a plan drops in
// anywhere a marshal closure was written by hand.
func (p *Plan[T]) Marshal(x *xdr.XDR, v *T) error {
	return p.c.Marshal(x, unsafe.Pointer(v))
}

// Encode serializes *v into x's stream.
func (p *Plan[T]) Encode(x *xdr.XDR, v *T) error {
	return p.c.Encode(x, unsafe.Pointer(v))
}

// Decode deserializes from x's stream into *v.
func (p *Plan[T]) Decode(x *xdr.XDR, v *T) error {
	return p.c.Decode(x, unsafe.Pointer(v))
}

// Mode reports the configuration the plan was compiled for.
func (p *Plan[T]) Mode() Mode { return p.c.Mode() }

// Codec exposes the untyped compiled plan. A nil plan, which marks a
// void side wherever plans are passed, has the nil codec that marks one
// wherever codecs are.
func (p *Plan[T]) Codec() *Codec {
	if p == nil {
		return nil
	}
	return p.c
}
