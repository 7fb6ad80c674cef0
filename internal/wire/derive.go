package wire

// Tempo-derived plans: ROADMAP item 3, front (a). Compile hand-builds
// the flat instruction program from rules; DeriveCodec obtains the same
// program from the paper's actual mechanism instead — binding-time
// analysis and specialization of generic marshaling code. The pipeline
// (internal/tempo/planext) emits a generic rpcgen-style mini-C stub for
// the wire shape, specializes it against the library with the paper's
// division (mode, ops table, and buffer geometry static; buffer pointer
// and user data dynamic), and extracts the residual store/load schedule.
// This file lowers that schedule onto the concrete Go struct layout:
// every 4-byte access becomes an instruction, adjacent accesses fuse
// through the same appendRun used by the hand compiler, and the probe
// unrolling of counted arrays re-generalizes to the counted slice ops.
//
// Derivation covers the word-shaped subset the mini-C library marshals
// (ints, uints, bools, fixed and counted arrays of them, nested
// structs). Everything else — strings, opaque bytes, 8-byte scalars,
// floats, arrays of composites — is out of the probe subset and returns
// planext.UnsupportedError, so callers fall back to Compile explicitly;
// derivation never silently mis-lowers. Within the subset the derived
// program is structurally identical to Compile's output and the codecs
// are byte-identical on the wire (see derive_test.go and
// FuzzDerivedPlan).

import (
	"fmt"
	"reflect"
	"strings"

	"specrpc/internal/tempo/planext"
)

// DeriveShape maps t into the probe subset planext can specialize, or
// reports why it cannot (*planext.UnsupportedError).
func DeriveShape(t *Type) (*planext.Shape, error) {
	if t == nil {
		return nil, &planext.UnsupportedError{Reason: "nil wire type"}
	}
	switch t.Kind {
	case Int32:
		return &planext.Shape{Kind: planext.Word}, nil
	case Uint32:
		return &planext.Shape{Kind: planext.UWord}, nil
	case Bool:
		return &planext.Shape{Kind: planext.Flag}, nil
	case FixedArray:
		elem, err := deriveElem(t.Elem)
		if err != nil {
			return nil, err
		}
		return &planext.Shape{Kind: planext.Fixed, Len: t.Len, Elem: elem}, nil
	case VarArray:
		elem, err := deriveElem(t.Elem)
		if err != nil {
			return nil, err
		}
		return &planext.Shape{Kind: planext.Counted, Bound: t.Bound, Elem: elem}, nil
	case Struct:
		sh := &planext.Shape{Kind: planext.Record, Fields: make([]*planext.Shape, len(t.Fields))}
		for i, f := range t.Fields {
			fs, err := DeriveShape(f.Type)
			if err != nil {
				return nil, fmt.Errorf("struct %s field %s: %w", t.Name, f.Name, err)
			}
			sh.Fields[i] = fs
		}
		return sh, nil
	default:
		// String, opaque, and 8-byte/float scalars are outside the mini-C
		// library's word-shaped marshaling subset.
		return nil, &planext.UnsupportedError{
			Reason: fmt.Sprintf("wire kind %s is outside the mini-C probe subset", t.Kind),
		}
	}
}

func deriveElem(t *Type) (*planext.Shape, error) {
	if t == nil {
		return nil, &planext.UnsupportedError{Reason: "array with nil element type"}
	}
	switch t.Kind {
	case Int32:
		return &planext.Shape{Kind: planext.Word}, nil
	case Uint32:
		return &planext.Shape{Kind: planext.UWord}, nil
	case Bool:
		return &planext.Shape{Kind: planext.Flag}, nil
	default:
		return nil, &planext.UnsupportedError{
			Reason: fmt.Sprintf("array of %s elements is outside the mini-C probe subset", t.Kind),
		}
	}
}

// DeriveCodec builds the codec for (t, rt) from the specializer instead
// of the hand compiler: probe stubs are specialized in both directions,
// the residual schedules are cross-checked and lowered onto rt's layout.
// The mode must be Specialized (a derived plan is by construction not
// the generic walker).
func DeriveCodec(t *Type, rt reflect.Type, mode Mode) (*Codec, error) {
	if mode != Specialized {
		return nil, fmt.Errorf("wire: derive: mode %s is not a plan mode", mode)
	}
	if t == nil {
		return nil, fmt.Errorf("wire: nil type description")
	}
	if rt == nil {
		return nil, fmt.Errorf("wire: nil Go type")
	}
	// bind validates the (wire, Go) pairing and provides the generic
	// fallback tree, exactly as Compile does.
	root, err := bind(t, rt, 0)
	if err != nil {
		return nil, err
	}
	shape, err := DeriveShape(t)
	if err != nil {
		return nil, err
	}
	enc, err := planext.Derive(shape, planext.Encode)
	if err != nil {
		return nil, err
	}
	dec, err := planext.Derive(shape, planext.Decode)
	if err != nil {
		return nil, err
	}
	// The two directions must residualize to the same access sequence;
	// a divergence would mean the library's encode and decode paths
	// disagree about the wire layout.
	if err := schedulesAgree(enc.Schedule, dec.Schedule); err != nil {
		return nil, err
	}
	prog, err := lowerSchedule(enc.Schedule, t, rt)
	if err != nil {
		return nil, err
	}
	return &Codec{mode: mode, t: t, rt: rt, root: root, prog: prog}, nil
}

// DerivePlan is the typed façade over DeriveCodec, mirroring NewPlan.
func DerivePlan[T any](t *Type, mode Mode) (*Plan[T], error) {
	rt := reflect.TypeOf((*T)(nil)).Elem()
	c, err := DeriveCodec(t, rt, mode)
	if err != nil {
		return nil, err
	}
	return &Plan[T]{c: c}, nil
}

// schedulesAgree checks that encode and decode residualized to the same
// object-access sequence.
func schedulesAgree(enc, dec *planext.Schedule) error {
	if len(enc.Accesses) != len(dec.Accesses) || enc.WireBytes != dec.WireBytes {
		return fmt.Errorf("wire: derive: encode residual (%d accesses, %d bytes) disagrees with decode (%d accesses, %d bytes)",
			len(enc.Accesses), enc.WireBytes, len(dec.Accesses), dec.WireBytes)
	}
	for i := range enc.Accesses {
		if enc.Accesses[i].String() != dec.Accesses[i].String() {
			return fmt.Errorf("wire: derive: access %d: encode residual %s disagrees with decode %s",
				i, enc.Accesses[i], dec.Accesses[i])
		}
	}
	return nil
}

// lowerSchedule maps the residual access sequence onto rt's memory
// layout, producing the flat instruction program. Scalar and
// fixed-array accesses lower to runs fused by appendRun — the same
// fusion the hand compiler applies — and each counted field's probe
// group (count word + unrolled probe elements) re-generalizes to one
// counted slice instruction.
func lowerSchedule(sched *planext.Schedule, t *Type, rt reflect.Type) ([]instr, error) {
	// The probe stream is strictly linear: access i moves bytes [4i,4i+4).
	for i, a := range sched.Accesses {
		if a.WireOff != 4*i {
			return nil, fmt.Errorf("wire: derive: access %d at wire offset %d, want %d (non-linear residual)", i, a.WireOff, 4*i)
		}
	}
	var prog []instr
	i := 0
	for i < len(sched.Accesses) {
		n, err := lowerAccess(&prog, sched, i, t, rt)
		if err != nil {
			return nil, err
		}
		i += n
	}
	return prog, nil
}

// lowerAccess lowers the access at index i (plus, for a counted field,
// its probe elements) and reports how many accesses it consumed.
func lowerAccess(prog *[]instr, sched *planext.Schedule, i int, t *Type, rt reflect.Type) (int, error) {
	a := sched.Accesses[i]
	cur, crt := t, rt
	off := uintptr(0)
	for si, st := range a.Path {
		switch {
		case st.Count:
			if si != len(a.Path)-1 {
				return 0, fmt.Errorf("wire: derive: access %s: count step mid-path", a)
			}
			ft, frt, fOff := cur, crt, off
			if st.Field >= 0 {
				var err error
				ft, frt, fOff, err = fieldAt(cur, crt, st.Field, off)
				if err != nil {
					return 0, fmt.Errorf("wire: derive: access %s: %w", a, err)
				}
			}
			return lowerCounted(prog, sched, i, ft, frt, fOff)
		case st.Field >= 0:
			var err error
			cur, crt, off, err = fieldAt(cur, crt, st.Field, off)
			if err != nil {
				return 0, fmt.Errorf("wire: derive: access %s: %w", a, err)
			}
		case st.Index >= 0:
			if cur.Kind != FixedArray || crt.Kind() != reflect.Array {
				return 0, fmt.Errorf("wire: derive: access %s: index step into %s", a, cur.Kind)
			}
			if st.Index >= cur.Len {
				return 0, fmt.Errorf("wire: derive: access %s: index %d out of [0,%d)", a, st.Index, cur.Len)
			}
			off += uintptr(st.Index) * crt.Elem().Size()
			cur, crt = cur.Elem, crt.Elem()
		default:
			return 0, fmt.Errorf("wire: derive: access %s: malformed step", a)
		}
	}
	switch cur.Kind {
	case Int32, Uint32:
		appendRun(prog, opUnits, off, 1)
	case Bool:
		appendRun(prog, opBools, off, 1)
	default:
		return 0, fmt.Errorf("wire: derive: access %s resolves to non-scalar %s", a, cur.Kind)
	}
	return 1, nil
}

func fieldAt(t *Type, rt reflect.Type, idx int, off uintptr) (*Type, reflect.Type, uintptr, error) {
	if t.Kind != Struct || rt.Kind() != reflect.Struct {
		return nil, nil, 0, fmt.Errorf("field step into %s", t.Kind)
	}
	if idx >= len(t.Fields) || idx >= rt.NumField() {
		return nil, nil, 0, fmt.Errorf("field %d out of range", idx)
	}
	gf := rt.Field(idx)
	return t.Fields[idx].Type, gf.Type, off + gf.Offset, nil
}

// lowerCounted re-generalizes a counted field's probe group. The
// residual unrolled the field at its probe count; the count word access
// at index i must be followed by exactly the probe elements in order,
// and the whole group lowers to one counted slice instruction — the
// step from the paper's §6.2 guarded specialization back to a plan that
// handles any runtime length.
func lowerCounted(prog *[]instr, sched *planext.Schedule, i int, ft *Type, frt reflect.Type, off uintptr) (int, error) {
	if ft.Kind != VarArray || frt.Kind() != reflect.Slice {
		return 0, fmt.Errorf("wire: derive: count word of non-counted %s", ft.Kind)
	}
	k := planext.ProbeCount(ft.Bound)
	count := sched.Accesses[i]
	base := count.Path[:len(count.Path)-1]
	last := count.Path[len(count.Path)-1]
	for j := 0; j < k; j++ {
		if i+1+j >= len(sched.Accesses) {
			return 0, fmt.Errorf("wire: derive: probe group for %s truncated at %d of %d elements", count, j, k)
		}
		got := sched.Accesses[i+1+j]
		want := make([]planext.Step, 0, len(base)+2)
		want = append(want, base...)
		if last.Field >= 0 {
			want = append(want, planext.Step{Field: last.Field, Index: -1})
		}
		want = append(want, planext.Step{Field: -1, Index: j})
		if !stepsEqual(got.Path, want) {
			return 0, fmt.Errorf("wire: derive: probe group for %s: access %d is %s, want element %d", count, i+1+j, got, j)
		}
	}
	var run op
	switch ft.Elem.Kind {
	case Int32, Uint32:
		run = opUnits
	case Bool:
		run = opBools
	default:
		return 0, fmt.Errorf("wire: derive: counted %s elements", ft.Elem.Kind)
	}
	*prog = append(*prog, sliceRun(off, effBound(ft.Bound), run, 1, frt))
	return 1 + k, nil
}

func stepsEqual(a, b []planext.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Plan disassembly

// ProgString renders the codec's flat instruction program, one
// instruction per line — the residual-code artifact used by the
// derivation equivalence tests and the binding-time evidence dumps.
// Generic codecs have no flat program and render as "(generic walker)".
func (c *Codec) ProgString() string {
	if len(c.prog) == 0 {
		return "(generic walker)\n"
	}
	var sb strings.Builder
	writeProg(&sb, c.prog, "")
	return sb.String()
}

func writeProg(sb *strings.Builder, prog []instr, indent string) {
	for _, in := range prog {
		sb.WriteString(indent)
		sb.WriteString(in.String())
		sb.WriteByte('\n')
		if len(in.sub) > 0 {
			writeProg(sb, in.sub, indent+"  ")
		}
	}
}

// String renders one instruction with its static data.
func (in instr) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-11s off=%d", in.op, in.off)
	switch in.op {
	case opUnits, opUnits8, opBools, opBytes:
		fmt.Fprintf(&sb, " n=%d", in.n)
	case opString, opOpaqueV:
		fmt.Fprintf(&sb, " bound=%#x", in.bound)
	case opSliceRun:
		fmt.Fprintf(&sb, " bound=%#x stride=%d per=%d*%s %s", in.bound, in.stride, in.unitsPer, in.run, in.sliceT)
	case opSliceSub:
		fmt.Fprintf(&sb, " bound=%#x stride=%d %s", in.bound, in.stride, in.sliceT)
	case opVecSub:
		fmt.Fprintf(&sb, " n=%d stride=%d", in.n, in.stride)
	}
	return sb.String()
}

// String names the instruction class.
func (o op) String() string {
	switch o {
	case opUnits:
		return "units"
	case opUnits8:
		return "units8"
	case opBools:
		return "bools"
	case opBytes:
		return "bytes"
	case opString:
		return "string"
	case opOpaqueV:
		return "opaque<>"
	case opSliceRun:
		return "slice-run"
	case opSliceSub:
		return "slice-sub"
	case opVecSub:
		return "vec-sub"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}
