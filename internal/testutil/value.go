package testutil

import (
	"fmt"
	"math"
	"reflect"
	"strings"
)

// Same compares decoded values field by field through pointers: it
// tells a nil slice or pointer from an empty one and, unlike
// reflect.DeepEqual, holds a NaN equal to itself.
func Same(a, b any) bool { return sameValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// Show renders a value for a failure message with its pointers
// followed.
func Show(v any) string {
	var sb strings.Builder
	showValue(&sb, reflect.ValueOf(v))
	return sb.String()
}

func showValue(sb *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			sb.WriteString("nil")
			return
		}
		sb.WriteString("&")
		showValue(sb, v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			sb.WriteString("nil")
			return
		}
		sb.WriteString("[")
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				sb.WriteString(" ")
			}
			showValue(sb, v.Index(i))
		}
		sb.WriteString("]")
	case reflect.Struct:
		sb.WriteString("{")
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(sb, "%s:", v.Type().Field(i).Name)
			showValue(sb, v.Field(i))
		}
		sb.WriteString("}")
	default:
		fmt.Fprintf(sb, "%#v", v.Interface())
	}
}
