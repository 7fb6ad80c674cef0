package testutil

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// CheckCarved holds a value that a decode has just filled afresh, given
// by pointer, to the rule a decoder that carves several parts out of
// one allocation must keep: no part reaches into another. Every slice of
// pointer-free elements must have cap == len and, like every pointee of
// a pointer-free type, sit at an address aligned for its element; and
// flipping every bit of all of them, then appending to each slice, must
// leave each of them flipped once and every string in the value as it
// was. It returns what broke, or nil. The value is spoiled either way.
func CheckCarved(v any) error {
	var c carved
	c.collect(reflect.ValueOf(v).Elem(), "v")
	if c.err != nil {
		return c.err
	}
	want := make([]reflect.Value, len(c.parts))
	for i, p := range c.parts {
		want[i] = reflect.New(p.v.Type()).Elem()
		if p.v.Kind() == reflect.Slice {
			want[i].Set(reflect.MakeSlice(p.v.Type(), p.v.Len(), p.v.Len()))
			reflect.Copy(want[i], p.v)
		} else {
			want[i].Set(p.v)
		}
		flip(want[i])
	}
	for _, p := range c.parts {
		flip(p.v)
		if p.v.Kind() == reflect.Slice {
			_ = reflect.Append(p.v, p.v.Index(0))
		}
	}
	for i, p := range c.parts {
		if !sameValue(p.v, want[i]) {
			return fmt.Errorf("%s shares memory with another part: writing them all left %s, want %s",
				p.path, Show(p.v.Interface()), Show(want[i].Interface()))
		}
	}
	for _, s := range c.strs {
		if got := s.v.String(); got != s.was {
			return fmt.Errorf("%s: %q changed to %q when the pointer-free parts beside it were written", s.path, s.was, got)
		}
	}
	return nil
}

// part is a non-empty slice of pointer-free elements or a pointer-free
// pointee; str a non-empty string and what it held.
type (
	part struct {
		v    reflect.Value
		path string
	}
	str struct {
		v         reflect.Value
		was, path string
	}
)

type carved struct {
	headers int // non-empty slices and pointees that hold pointers
	parts   []part
	strs    []str
	err     error
}

func (c *carved) collect(v reflect.Value, path string) {
	if c.err != nil {
		return
	}
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			c.strs = append(c.strs, str{v, strings.Clone(v.String()), path})
		}
	case reflect.Slice:
		if v.Len() == 0 {
			return
		}
		if !hasPointers(v.Type().Elem()) {
			if v.Cap() != v.Len() {
				c.err = fmt.Errorf("%s: a fresh decode left cap %d over len %d", path, v.Cap(), v.Len())
				return
			}
			c.aligned(v.Pointer(), v.Type().Elem(), path)
			c.parts = append(c.parts, part{v, path})
			return
		}
		c.headers++
		for i := 0; i < v.Len(); i++ {
			c.collect(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if !hasPointers(v.Type().Elem()) {
			c.aligned(v.Pointer(), v.Type().Elem(), path)
			c.parts = append(c.parts, part{v.Elem(), "*" + path})
			return
		}
		c.headers++
		c.collect(v.Elem(), "*"+path)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			c.collect(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			c.collect(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	}
}

func (c *carved) aligned(addr uintptr, t reflect.Type, path string) {
	if addr%uintptr(t.Align()) != 0 {
		c.err = fmt.Errorf("%s: %s at %#x, misaligned for its alignment of %d", path, t, addr, t.Align())
	}
}

// hasPointers reports whether a value of t holds a pointer the garbage
// collector follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.String, reflect.Slice, reflect.Pointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return true
	}
	return false
}

// flip inverts every bit of a pointer-free value, so that every byte of
// its memory changes.
func flip(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(^v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(^v.Uint())
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(^math.Float32bits(float32(v.Float())))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(^math.Float64bits(v.Float())))
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			flip(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			flip(v.Field(i))
		}
	}
}

// CarvedAllocs is the number of allocations a decode that carves every
// pointer-free part from one slab makes filling a fresh value equal to
// the one v points to: one for each non-empty slice and each pointee
// that hold pointers, and one slab for all the rest, if there is any.
func CarvedAllocs(v any) int {
	var c carved
	c.collect(reflect.ValueOf(v).Elem(), "v")
	n := c.headers
	if len(c.parts) > 0 || len(c.strs) > 0 {
		n++
	}
	return n
}
