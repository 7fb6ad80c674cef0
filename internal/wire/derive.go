package wire

// Tempo-derived plans: ROADMAP item 3, front (a). Compile hand-builds
// the flat instruction program from rules; DeriveCodec obtains the same
// program from the paper's actual mechanism instead — binding-time
// analysis and specialization of generic marshaling code. The pipeline
// (internal/tempo/planext) emits a generic rpcgen-style mini-C stub for
// the wire shape, specializes it against the library with the paper's
// division (mode, ops table, and buffer geometry static; buffer pointer
// and user data dynamic), and extracts the residual store/load schedule.
// This file reads that schedule back into Lower's layout-free program:
// every scalar access becomes a step named by its field path, a fixed
// array's element accesses regroup into one array step, and the probe
// unrolling of a counted array re-generalizes to one counted step. fuse
// then places the steps on the Go layout exactly as it does Compile's,
// so the residual reaches the executors through the same program.
//
// Derivation covers the word-shaped subset the mini-C library marshals
// (ints, uints, bools, fixed and counted arrays of them, nested
// structs). Everything else — strings, opaque bytes, 8-byte scalars,
// floats, arrays of composites, unions, optional data — is out of the
// probe subset and returns
// planext.UnsupportedError, so callers fall back to Compile explicitly;
// derivation never silently mis-lowers. Within the subset the regrouped
// steps equal Lower's (TestDerivedStepsMatchLower, FuzzDerivedSteps),
// so the derived program is Compile's and the codecs are byte-identical
// on the wire (see derive_test.go and FuzzDerivedPlan).

import (
	"fmt"
	"reflect"
	"slices"
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
	case FixedArray, VarArray:
		if t.Elem == nil {
			return nil, &planext.UnsupportedError{Reason: "array with nil element type"}
		}
		elem, err := DeriveShape(t.Elem)
		if err != nil || leafStep(elem) == nil {
			return nil, &planext.UnsupportedError{
				Reason: fmt.Sprintf("array of %s elements is outside the mini-C probe subset", t.Elem.Kind),
			}
		}
		if t.Kind == VarArray {
			return &planext.Shape{Kind: planext.Counted, Bound: t.Bound, Elem: elem}, nil
		}
		return &planext.Shape{Kind: planext.Fixed, Len: t.Len, Elem: elem}, nil
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
		// String, opaque, 8-byte/float scalars, unions and optional data
		// are outside the mini-C library's word-shaped marshaling subset.
		return nil, &planext.UnsupportedError{
			Reason: fmt.Sprintf("wire kind %s is outside the mini-C probe subset", t.Kind),
		}
	}
}

// DeriveCodec builds the codec for (t, rt) from the specializer instead
// of the hand compiler: probe stubs are specialized in both directions,
// the residual schedules are cross-checked, regrouped into Lower's
// steps, and placed on rt's layout by fuse, as Compile places its own.
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
	// bind validates the (wire, Go) pairing and resolves the offsets
	// fuse places the steps at, exactly as Compile does.
	root, err := bind(t, rt, 0)
	if err != nil {
		return nil, err
	}
	shape, err := DeriveShape(t)
	if err != nil {
		return nil, err
	}
	steps, err := deriveSteps(shape)
	if err != nil {
		return nil, err
	}
	return &Codec{mode: mode, t: t, rt: rt, root: root, prog: fuse(steps, &root)}, nil
}

// deriveSteps specializes shape's probe stub in both directions and
// regroups the residual into the layout-free program.
func deriveSteps(shape *planext.Shape) ([]Step, error) {
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
	return regroup(enc.Schedule, shape)
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

// regroup reads a residual schedule of shape back into Lower's
// layout-free program. A scalar access becomes one step named by its
// field path; a fixed array's element accesses become one OpVecSub
// step; a counted field's probe group — the count word, then its
// ProbeCount elements — becomes one OpSliceSub step, the way back from
// the paper's §6.2 guarded specialization to a program for any runtime
// length. It reads planext's types only: placing the steps on a Go
// layout is fuse's job. Any access it cannot place in the shape is an
// error, never a guess.
func regroup(sched *planext.Schedule, shape *planext.Shape) ([]Step, error) {
	// The probe stream is strictly linear: access i moves bytes [4i,4i+4).
	for i, a := range sched.Accesses {
		if a.WireOff != 4*i {
			return nil, fmt.Errorf("wire: derive: access %d at wire offset %d, want %d (non-linear residual)", i, a.WireOff, 4*i)
		}
	}
	var steps []Step
	for i := 0; i < len(sched.Accesses); {
		s, n, err := regroupAt(sched.Accesses, i, shape)
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
		i += n
	}
	return steps, nil
}

// regroupAt regroups the access at index i — with, for an array, the
// rest of its element group — into one step, and reports how many
// accesses it consumed.
func regroupAt(acc []planext.Access, i int, shape *planext.Shape) (Step, int, error) {
	a := acc[i]
	cur := shape
	var path []int
	for si, st := range a.Path {
		if st.Field >= 0 {
			if cur.Kind != planext.Record || st.Field >= len(cur.Fields) {
				return Step{}, 0, fmt.Errorf("wire: derive: access %s: field step %d into %s of %d fields", a, st.Field, cur.Kind, len(cur.Fields))
			}
			cur = cur.Fields[st.Field]
			path = append(path, st.Field)
		}
		switch {
		case st.Count:
			if si != len(a.Path)-1 {
				return Step{}, 0, fmt.Errorf("wire: derive: access %s: count step mid-path", a)
			}
			if cur.Kind != planext.Counted {
				return Step{}, 0, fmt.Errorf("wire: derive: count word of non-counted %s", cur.Kind)
			}
			elems := a.Path[:si:si]
			if st.Field >= 0 {
				elems = append(elems, planext.Step{Field: st.Field, Index: -1})
			}
			k := planext.ProbeCount(cur.Bound)
			if err := elementGroup(acc, i+1, elems, k, a); err != nil {
				return Step{}, 0, err
			}
			s, err := arrayStep(OpSliceSub, path, cur, a)
			return s, 1 + k, err
		case st.Index >= 0:
			if cur.Kind != planext.Fixed || st.Index >= cur.Len {
				return Step{}, 0, fmt.Errorf("wire: derive: access %s: index step %d into %s of %d elements", a, st.Index, cur.Kind, cur.Len)
			}
			if err := elementGroup(acc, i, a.Path[:si], cur.Len, a); err != nil {
				return Step{}, 0, err
			}
			s, err := arrayStep(OpVecSub, path, cur, a)
			return s, cur.Len, err
		case st.Field < 0:
			return Step{}, 0, fmt.Errorf("wire: derive: access %s: malformed step", a)
		}
	}
	s := leafStep(cur)
	if s == nil {
		return Step{}, 0, fmt.Errorf("wire: derive: access %s resolves to non-scalar %s", a, cur.Kind)
	}
	s.Path = path
	return *s, 1, nil
}

// elementGroup checks that acc[from:from+k] move elements 0..k-1 of the
// array at prefix, in order; first names the access that opened the
// group. An element access must end at its index, so an index step
// mid-path fails here too.
func elementGroup(acc []planext.Access, from int, prefix []planext.Step, k int, first planext.Access) error {
	for j := 0; j < k; j++ {
		if from+j >= len(acc) {
			return fmt.Errorf("wire: derive: element group for %s truncated at %d of %d elements", first, j, k)
		}
		want := append(slices.Clip(prefix), planext.Step{Field: -1, Index: j})
		if got := acc[from+j]; !slices.Equal(got.Path, want) {
			return fmt.Errorf("wire: derive: element group for %s: access %d is %s, want element %d", first, from+j, got, j)
		}
	}
	return nil
}

// arrayStep builds the array step o (OpVecSub or OpSliceSub) at path
// for arr, whose elements must be word-shaped scalars.
func arrayStep(o Op, path []int, arr *planext.Shape, a planext.Access) (Step, error) {
	elem := leafStep(arr.Elem)
	if elem == nil {
		return Step{}, fmt.Errorf("wire: derive: access %s: array of non-scalar elements", a)
	}
	s := Step{Op: o, Path: path, N: 1, Wire: VarWire, Bound: arr.Bound, ElemMin: elem.Wire, Sub: []Step{*elem}}
	if o == OpVecSub {
		s.N, s.Wire = arr.Len, arr.Len*elem.Wire
	}
	return s, nil
}

// leafStep is the step Lower builds for a word-shaped scalar, or nil
// when s is not one.
func leafStep(s *planext.Shape) *Step {
	o := OpUnits
	switch s.Kind {
	case planext.Word, planext.UWord:
	case planext.Flag:
		o = OpBools
	default:
		return nil
	}
	return &Step{Op: o, N: 1, Wire: runWire(o, 1)}
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
		for _, a := range in.arms {
			if a.def {
				fmt.Fprintf(sb, "%s  default:\n", indent)
			} else {
				fmt.Fprintf(sb, "%s  case %v:\n", indent, a.cases)
			}
			writeProg(sb, a.sub, indent+"    ")
		}
	}
}

// String renders one instruction with its static data.
func (in instr) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-11s off=%d", in.op, in.off)
	switch in.op {
	case OpUnits, OpUnits8, OpBools, OpBytes:
		fmt.Fprintf(&sb, " n=%d", in.n)
	case OpString, OpOpaqueV:
		fmt.Fprintf(&sb, " bound=%#x", in.bound)
	case opSliceRun:
		fmt.Fprintf(&sb, " bound=%#x stride=%d per=%d*%s %s", in.bound, in.stride, in.unitsPer, in.run, in.sliceT)
	case OpSliceSub:
		fmt.Fprintf(&sb, " bound=%#x stride=%d %s", in.bound, in.stride, in.sliceT)
	case OpVecSub:
		fmt.Fprintf(&sb, " n=%d stride=%d", in.n, in.stride)
	case OpOptional:
		fmt.Fprintf(&sb, " %s", in.ptrT)
	case OpChain:
		fmt.Fprintf(&sb, " %s link=%d", in.ptrT, in.stride)
	}
	return sb.String()
}

// String names the instruction class.
func (o Op) String() string {
	switch o {
	case OpUnits:
		return "units"
	case OpUnits8:
		return "units8"
	case OpBools:
		return "bools"
	case OpBytes:
		return "bytes"
	case OpString:
		return "string"
	case OpOpaqueV:
		return "opaque<>"
	case opSliceRun:
		return "slice-run"
	case OpSliceSub:
		return "slice-sub"
	case OpVecSub:
		return "vec-sub"
	case OpUnion:
		return "union"
	case OpOptional:
		return "optional"
	case OpChain:
		return "chain"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}
