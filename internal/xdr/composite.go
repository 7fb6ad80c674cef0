package xdr

// This file carries the composite constructors of the original xdr.c:
// counted arrays (xdr_array), fixed-length vectors (xdr_vector) and
// optional data (xdr_pointer/xdr_reference). Discriminated unions
// (xdr_union) have no constructor here: they are a plan shape of
// internal/wire, and rpcgen's closure fallback prints its own switch.
// Each is generic over an element routine exactly as the C versions were
// generic over an xdrproc_t — the interpretive layer the paper's §2 calls
// out as a specialization opportunity.

// Array marshals a variable-length counted array: a 4-byte element count
// followed by each element marshaled with elem (xdr_array). maxLen bounds
// the decoded count. On decode a slice with room for the count is kept
// and decoded over; a larger count allocates under the allocation rule
// (see counted): no more elements up front than the MemStream's
// remaining bytes could hold at one unit each, the rest appended as
// elements decode — which is how elements of zero wire size, of which
// any count can follow, arrive. Over any other stream the decode is
// refused.
func Array[T any](x *XDR, v *[]T, maxLen uint32, elem Proc[T]) error {
	switch x.Op {
	case Encode:
		n := uint32(len(*v))
		if n > maxLen {
			return ErrTooBig
		}
		if err := x.Uint32(&n); err != nil {
			return err
		}
		for i := range *v {
			if err := elem(x, &(*v)[i]); err != nil {
				return err
			}
		}
		return nil
	case Decode:
		var n uint32
		if err := x.Uint32(&n); err != nil {
			return err
		}
		if n > maxLen {
			return ErrTooBig
		}
		// Only a MemStream vouches for a count; a negative total is one no
		// 32-bit host can hold.
		ms, ok := x.Stream.(*MemStream)
		total := int(n)
		if !ok || total < 0 {
			return ErrOverflow
		}
		if total <= cap(*v) {
			*v = (*v)[:total]
		} else {
			*v = make([]T, min(total, max(1, ms.Remaining()/BytesPerUnit)))
		}
		var zero T
		for i := 0; i < total; i++ {
			if i == len(*v) {
				*v = append(*v, zero) // amortized doubling, one decoded element at a time
			}
			if err := elem(x, &(*v)[i]); err != nil {
				return err
			}
		}
		return nil
	case Free:
		for i := range *v {
			if err := elem(x, &(*v)[i]); err != nil {
				return err
			}
		}
		*v = nil
		return nil
	default:
		return ErrBadOp
	}
}

// Vector marshals a fixed-length array whose length is known from the type
// and therefore not on the wire (xdr_vector).
func Vector[T any](x *XDR, v []T, elem Proc[T]) error {
	for i := range v {
		if err := elem(x, &v[i]); err != nil {
			return err
		}
	}
	return nil
}

// Optional marshals `*T` as XDR optional-data: a 4-byte "follows" flag and,
// if nonzero, the pointee (xdr_pointer). On decode a nil target is
// allocated when the flag says data follows; on free the pointer is
// released after freeing the pointee.
func Optional[T any](x *XDR, v **T, elem Proc[T]) error {
	switch x.Op {
	case Encode:
		var follows bool
		if *v != nil {
			follows = true
		}
		if err := x.Bool(&follows); err != nil {
			return err
		}
		if !follows {
			return nil
		}
		return elem(x, *v)
	case Decode:
		var follows bool
		if err := x.Bool(&follows); err != nil {
			return err
		}
		if !follows {
			*v = nil
			return nil
		}
		if *v == nil {
			*v = new(T)
		}
		return elem(x, *v)
	case Free:
		if *v != nil {
			if err := elem(x, *v); err != nil {
				return err
			}
			*v = nil
		}
		return nil
	default:
		return ErrBadOp
	}
}
