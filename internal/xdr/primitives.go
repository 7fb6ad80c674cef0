package xdr

import "math"

// Long marshals a 32-bit signed integer, the Go rendering of the paper's
// Figure 2 xdr_long(): a three-way dispatch on the handle mode followed by
// an indirect call through the stream ops. This function is the canonical
// "encoding/decoding dispatch" specialization opportunity (§3.1).
func (x *XDR) Long(v *int32) error {
	switch x.Op {
	case Encode:
		return x.Stream.PutLong(*v)
	case Decode:
		return x.Stream.GetLong(v)
	case Free:
		return nil
	default:
		return ErrBadOp
	}
}

// Int marshals an int as a 32-bit quantity. It mirrors xdr_int, the
// "machine dependent switch on integer size" layer of Figure 1: on the
// wire an int is exactly the same as a long.
func (x *XDR) Int(v *int) error {
	l := int32(*v)
	if err := x.Long(&l); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = int(l)
	}
	return nil
}

// Uint32 marshals an unsigned 32-bit integer (xdr_u_long).
func (x *XDR) Uint32(v *uint32) error {
	l := int32(*v)
	if err := x.Long(&l); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = uint32(l)
	}
	return nil
}

// Bool marshals a boolean as a 32-bit 0/1 (xdr_bool). Any nonzero decoded
// value is treated as true, matching the permissive original.
func (x *XDR) Bool(v *bool) error {
	var l int32
	if *v {
		l = 1
	}
	if err := x.Long(&l); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = l != 0
	}
	return nil
}

// Enum marshals an enumeration constant as its 32-bit value (xdr_enum).
func (x *XDR) Enum(v *int32) error { return x.Long(v) }

// Hyper marshals a 64-bit signed integer (xdr_hyper) as two 4-byte units,
// most significant first.
func (x *XDR) Hyper(v *int64) error {
	switch x.Op {
	case Encode:
		hi, lo := int32(uint64(*v)>>32), int32(uint64(*v))
		if err := x.Stream.PutLong(hi); err != nil {
			return err
		}
		return x.Stream.PutLong(lo)
	case Decode:
		var hi, lo int32
		if err := x.Stream.GetLong(&hi); err != nil {
			return err
		}
		if err := x.Stream.GetLong(&lo); err != nil {
			return err
		}
		*v = int64(uint64(uint32(hi))<<32 | uint64(uint32(lo)))
		return nil
	case Free:
		return nil
	default:
		return ErrBadOp
	}
}

// Uint64 marshals a 64-bit unsigned integer (xdr_u_hyper).
func (x *XDR) Uint64(v *uint64) error {
	h := int64(*v)
	if err := x.Hyper(&h); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = uint64(h)
	}
	return nil
}

// Float32 marshals an IEEE-754 single-precision float (xdr_float).
func (x *XDR) Float32(v *float32) error {
	l := int32(math.Float32bits(*v))
	if err := x.Long(&l); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = math.Float32frombits(uint32(l))
	}
	return nil
}

// Float64 marshals an IEEE-754 double-precision float (xdr_double).
func (x *XDR) Float64(v *float64) error {
	h := int64(math.Float64bits(*v))
	if err := x.Hyper(&h); err != nil {
		return err
	}
	if x.Op == Decode {
		*v = math.Float64frombits(uint64(h))
	}
	return nil
}

// Opaque marshals exactly len(p) fixed opaque bytes plus alignment padding
// (xdr_opaque). The length itself is not on the wire.
func (x *XDR) Opaque(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	pad := Pad(len(p))
	switch x.Op {
	case Encode:
		if err := x.Stream.PutBytes(p); err != nil {
			return err
		}
		if pad != 0 {
			return x.Stream.PutBytes(zeroPad[:pad])
		}
		return nil
	case Decode:
		if err := x.Stream.GetBytes(p); err != nil {
			return err
		}
		if pad != 0 {
			var scratch [BytesPerUnit]byte
			return x.Stream.GetBytes(scratch[:pad])
		}
		return nil
	case Free:
		return nil
	default:
		return ErrBadOp
	}
}

// Bytes marshals a variable-length opaque: a 4-byte count followed by the
// bytes and padding (xdr_bytes). maxSize bounds the decoded count;
// pass NoSizeLimit for an unbounded field. On decode a slice with room
// for the count is kept; see counted.
func (x *XDR) Bytes(p *[]byte, maxSize uint32) error {
	switch x.Op {
	case Encode:
		n := uint32(len(*p))
		if n > maxSize {
			return ErrTooBig
		}
		if err := x.Uint32(&n); err != nil {
			return err
		}
		return x.Opaque(*p)
	case Decode:
		var n uint32
		if err := x.Uint32(&n); err != nil {
			return err
		}
		if n > maxSize {
			return ErrTooBig
		}
		b, err := x.counted(*p, n)
		if err == nil {
			*p = b
		}
		return err
	case Free:
		*p = nil
		return nil
	default:
		return ErrBadOp
	}
}

// counted decodes the n bytes and the padding behind a count already
// read. A dst with room for them is kept and decoded over, like every
// other decode destination; otherwise they are allocated in one piece.
// Either way the stream must first vouch for them — the allocation rule
// stated beside wire's ensureSlice — so a decode over anything but a
// MemStream, which alone knows what is left, is refused.
func (x *XDR) counted(dst []byte, n uint32) ([]byte, error) {
	ms, ok := x.Stream.(*MemStream)
	if !ok || uint64(n) > uint64(ms.Remaining()) {
		return nil, ErrOverflow
	}
	if uint64(n) <= uint64(cap(dst)) {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	return dst, x.Opaque(dst)
}

// NoSizeLimit disables the bound of a counted field, as passing ~0 did in C.
const NoSizeLimit = ^uint32(0)

// String marshals a counted UTF-8-agnostic byte string (xdr_string).
func (x *XDR) String(s *string, maxSize uint32) error {
	switch x.Op {
	case Encode:
		n := uint32(len(*s))
		if n > maxSize {
			return ErrTooBig
		}
		if err := x.Uint32(&n); err != nil {
			return err
		}
		return x.Opaque([]byte(*s))
	case Decode:
		var n uint32
		if err := x.Uint32(&n); err != nil {
			return err
		}
		if n > maxSize {
			return ErrTooBig
		}
		buf, err := x.counted(nil, n)
		if err != nil {
			return err
		}
		*s = string(buf)
		return nil
	case Free:
		*s = ""
		return nil
	default:
		return ErrBadOp
	}
}

// Void marshals nothing (xdr_void); it exists so procedures with no
// arguments or results still have a marshaling routine.
func (x *XDR) Void() error { return nil }
