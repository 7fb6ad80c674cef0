package interop

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"specrpc/internal/compiledtest"
	"specrpc/internal/compiledtest/layout"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// requireEnv names the variable that turns a missing toolchain from a
// skip into a failure.
const requireEnv = "SPECRPC_INTEROP"

// spec is one .x file on both sides: the C peer built from it and the
// Go package generated from it.
type spec struct {
	file   string   // under internal/rpcgen/testdata
	flags  []string // extra rpcgen flags
	values string   // the peer's hand-built values, under testdata
	codecs map[string]*wire.Codec
}

var specs = []spec{
	{"rich.x", nil, "rich_values.inc", compiledtest.Codecs()},
	// rpcgen's inline code declares fixed bool arrays through a bool *,
	// a type plain C lacks: layout.x builds without it.
	{"layout.x", []string{"-i", "0"}, "layout_values.inc", layout.Codecs()},
}

// cPeer is a built peer for one spec.
type cPeer struct{ bin string }

// toolchain finds gcc, rpcgen and the tirpc compiler flags, or skips the
// test (fails it, with requireEnv=require) saying what is missing.
func toolchain(t *testing.T) (cflags []string) {
	t.Helper()
	missing := func(what string) {
		t.Helper()
		if os.Getenv(requireEnv) == "require" {
			t.Fatalf("%s, and %s=require", what, requireEnv)
		}
		t.Skipf("%s: install gcc, rpcsvc-proto and libtirpc-dev to run the libtirpc differential", what)
	}
	for _, tool := range []string{"gcc", "rpcgen"} {
		if _, err := exec.LookPath(tool); err != nil {
			missing("no " + tool)
		}
	}
	cflags = []string{"-I/usr/include/tirpc", "-ltirpc"}
	if out, err := exec.Command("pkg-config", "--cflags", "--libs", "libtirpc").Output(); err == nil {
		cflags = strings.Fields(string(out))
	}
	for _, f := range cflags {
		if dir, ok := strings.CutPrefix(f, "-I"); ok {
			if _, err := os.Stat(filepath.Join(dir, "rpc", "rpc.h")); err != nil {
				missing("no tirpc headers in " + dir)
			}
		}
	}
	return cflags
}

// build runs rpcgen on sp, writes the peer's type list, and compiles
// it against libtirpc.
func build(t *testing.T, cflags []string, sp spec) *cPeer {
	t.Helper()
	dir := t.TempDir()
	x, err := os.ReadFile(filepath.Join("..", "rpcgen", "testdata", sp.file))
	if err != nil {
		t.Fatal(err)
	}
	copyIn := func(from, to string) {
		b, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, to), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.x"), x, 0o644); err != nil {
		t.Fatal(err)
	}
	copyIn(filepath.Join("testdata", "peer.c"), "peer.c")
	copyIn(filepath.Join("testdata", sp.values), "values.inc")
	var types strings.Builder
	for name := range sp.codecs {
		fmt.Fprintf(&types, "T(%s)\n", name)
	}
	if err := os.WriteFile(filepath.Join(dir, "types.inc"), []byte(types.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(name string, args ...string) {
		t.Helper()
		cmd := exec.Command(name, args...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
	}
	run("rpcgen", append(append([]string{"-N"}, sp.flags...), "-h", "-o", "spec.h", "spec.x")...)
	run("rpcgen", append(append([]string{"-N"}, sp.flags...), "-c", "-o", "spec_xdr.c", "spec.x")...)
	run("gcc", append([]string{"-O1", "-w", "-o", "peer", "peer.c", "spec_xdr.c"}, cflags...)...)
	return &cPeer{bin: filepath.Join(dir, "peer")}
}

// ask sends the requests to a fresh peer process and returns its
// answers, one a request.
func (d *cPeer) ask(t *testing.T, reqs []string) []string {
	t.Helper()
	cmd := exec.Command(d.bin)
	cmd.Stdin = strings.NewReader(strings.Join(reqs, "\n") + "\n")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("peer: %v\n%s", err, stderr.String())
	}
	var answers []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		answers = append(answers, sc.Text())
	}
	if len(answers) != len(reqs) {
		t.Fatalf("peer answered %d of %d requests\n%s", len(answers), len(reqs), stderr.String())
	}
	return answers
}

// cAnswer is one parsed roundtrip answer: C decoded used bytes and
// encoded the value back as again; ok false means it refused them.
type cAnswer struct {
	ok    bool
	used  int
	again []byte
}

func parseRT(t *testing.T, a string) cAnswer {
	t.Helper()
	f := strings.Fields(a)
	if len(f) == 1 && f[0] == "bad" {
		return cAnswer{}
	}
	if len(f) != 3 || f[0] != "ok" {
		t.Fatalf("peer answer %q", a)
	}
	used, err := strconv.Atoi(f[1])
	if err != nil {
		t.Fatal(err)
	}
	return cAnswer{ok: true, used: used, again: unhex(t, f[2])}
}

func hexOf(b []byte) string {
	if len(b) == 0 {
		return "-"
	}
	return hex.EncodeToString(b)
}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	if s == "-" {
		return nil
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// rung is one Go engine over a type.
type rung struct {
	name string
	c    *wire.Codec
}

// rungsOf builds the walker and the fused interpreter over the
// description the package plan c was compiled from, beside c itself,
// which must be on the compiled rung.
func rungsOf(t *testing.T, c *wire.Codec) []rung {
	t.Helper()
	if c.Rung() != wire.RungCompiled {
		t.Fatalf("package plan on the %v rung", c.Rung())
	}
	out := []rung{{"compiled", c}}
	for _, m := range []wire.Mode{wire.Generic, wire.Specialized} {
		rc, err := wire.Compile(c.WireType(), c.GoType(), m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rung{map[wire.Mode]string{wire.Generic: "generic", wire.Specialized: "fused"}[m], rc})
	}
	return out
}

var replyTmpl = func() *rpcmsg.ReplyTemplate {
	rt, err := rpcmsg.NewReplyTemplate(rpcmsg.None())
	if err != nil {
		panic(err)
	}
	return rt
}()

// encode writes v as a reply body on r's rung and returns the body.
func (r rung) encode(v reflect.Value) ([]byte, error) {
	bs := xdr.NewBufEncode(nil)
	err := wire.NewReplyCodec(replyTmpl, r.c).Append(bs, 1, v.UnsafePointer())
	return bs.Buffer()[replyTmpl.Len():], err
}

// decode reads body into a fresh value on r's rung.
func (r rung) decode(body []byte) (reflect.Value, error) {
	v := reflect.New(r.c.GoType())
	return v, r.c.BodyDecoder()(body, v.UnsafePointer())
}

// fill sets v, of Go type bound to t, to a random value the codecs
// accept: counts and lengths inside their bounds, strings of letters
// (libtirpc's strings are C strings, which end at a NUL), and every
// union on an arm it has.
func fill(r *rand.Rand, t *wire.Type, v reflect.Value) {
	switch t.Kind {
	case wire.Int32:
		v.SetInt(int64(int32(r.Uint32())))
	case wire.Uint32:
		v.SetUint(uint64(r.Uint32()))
	case wire.Bool:
		v.SetBool(r.Intn(2) == 1)
	case wire.Float32, wire.Float64:
		v.SetFloat(float64(float32(r.NormFloat64() * 1e3)))
	case wire.Hyper:
		v.SetInt(int64(r.Uint64()))
	case wire.Uhyper:
		v.SetUint(r.Uint64())
	case wire.String:
		b := make([]byte, r.Intn(upTo(t.Bound, 8)+1))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		v.SetString(string(b))
	case wire.OpaqueFixed:
		for i := 0; i < t.Len; i++ {
			v.Index(i).SetUint(uint64(r.Intn(256)))
		}
	case wire.OpaqueVar:
		if n := r.Intn(upTo(t.Bound, 8) + 1); n > 0 {
			b := make([]byte, n)
			r.Read(b)
			v.SetBytes(b)
		}
	case wire.FixedArray:
		for i := 0; i < t.Len; i++ {
			fill(r, t.Elem, v.Index(i))
		}
	case wire.VarArray:
		// An empty array stays nil, as a decode leaves it.
		n := r.Intn(upTo(t.Bound, 4) + 1)
		if n == 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(r, t.Elem, s.Index(i))
		}
		v.Set(s)
	case wire.Struct:
		for i, f := range t.Fields {
			fill(r, f.Type, v.Field(i))
		}
	case wire.Union:
		k := r.Intn(len(t.Arms))
		arm := t.Arms[k]
		var d int64
		if arm.Default {
			for d = int64(r.Uint32()); listed(t, d); d = int64(r.Uint32()) {
			}
		} else {
			d = arm.Cases[r.Intn(len(arm.Cases))]
		}
		if t.Fields[0].Type.Kind == wire.Uint32 {
			v.Field(0).SetUint(uint64(uint32(d)))
		} else {
			v.Field(0).SetInt(int64(int32(d)))
		}
		if arm.Field.Type == nil {
			return
		}
		member := 1 // a union's Go struct: the discriminant, then each non-void arm
		for _, a := range t.Arms[:k] {
			if a.Field.Type != nil {
				member++
			}
		}
		fill(r, arm.Field.Type, v.Field(member))
	case wire.Optional:
		if r.Intn(3) == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		p := reflect.New(v.Type().Elem())
		fill(r, t.Elem, p.Elem())
		v.Set(p.Convert(v.Type()))
	}
}

// upTo is the smaller of a declared bound (0 for none) and n.
func upTo(bound uint32, n int) int {
	if bound == 0 || int64(bound) > int64(n) {
		return n
	}
	return int(bound)
}

// listed reports whether a union arm lists the discriminant d.
func listed(t *wire.Type, d int64) bool {
	for _, a := range t.Arms {
		for _, c := range a.Cases {
			if uint32(c) == uint32(d) {
				return true
			}
		}
	}
	return false
}

// TestInteropBytes: the Go rungs and libtirpc agree on every type of
// rich.x and layout.x that Codecs lists — Go's bytes decode in C and
// encode back unchanged, and what C encodes decodes in Go to the value
// it encoded.
func TestInteropBytes(t *testing.T) {
	cflags := toolchain(t)
	r := rand.New(rand.NewSource(35))
	for _, sp := range specs {
		t.Run(sp.file, func(t *testing.T) {
			d := build(t, cflags, sp)
			type sent struct {
				name string
				v    reflect.Value
				body []byte
			}
			var reqs []string
			var msgs []sent
			for _, name := range sortedNames(sp.codecs) {
				c := sp.codecs[name]
				rungs := rungsOf(t, c)
				for i := 0; i < 40; i++ {
					v := reflect.New(c.GoType())
					fill(r, c.WireType(), v.Elem())
					var body []byte
					for _, rg := range rungs {
						b, err := rg.encode(v)
						if err != nil {
							t.Fatalf("%s on %s: %v", name, rg.name, err)
						}
						if body == nil {
							body = b
						} else if !bytes.Equal(b, body) {
							t.Fatalf("%s: %s wrote %x, compiled %x", name, rg.name, b, body)
						}
					}
					msgs = append(msgs, sent{name, v, body})
					reqs = append(reqs, "rt "+name+" "+hexOf(body))
				}
			}
			for i, a := range d.ask(t, reqs) {
				m := msgs[i]
				got := parseRT(t, a)
				if !got.ok || got.used != len(m.body) || !bytes.Equal(got.again, m.body) {
					t.Fatalf("%s %s: libtirpc answered %q", m.name, testutil.Show(m.v.Elem().Interface()), a)
				}
				for _, rg := range rungsOf(t, sp.codecs[m.name]) {
					back, err := rg.decode(got.again)
					if err != nil || !testutil.Same(back.Elem().Interface(), m.v.Elem().Interface()) {
						t.Fatalf("%s on %s: C's bytes decode to %s, %v; want %s", m.name, rg.name,
							testutil.Show(back.Elem().Interface()), err, testutil.Show(m.v.Elem().Interface()))
					}
				}
			}
		})
	}
}

// TestInteropValues: values built by hand in C, encoded by libtirpc,
// decode on every Go rung to the values written here.
func TestInteropValues(t *testing.T) {
	cflags := toolchain(t)
	var lookups [2]compiledtest.LookupResult
	lookups[0].S = compiledtest.Shape{Kind: compiledtest.BLUE, Label: "tri", Next: &compiledtest.Point{X: 7, Y: -8}, Stamp: 5, Weight: 1.5, Visible: true}
	for i := range lookups[0].S.Corners {
		lookups[0].S.Corners[i] = compiledtest.Point{X: int32(i), Y: -int32(i)}
	}
	lookups[1] = compiledtest.LookupResult{Status: 2, ErrnoVal: -17}
	unions := layout.Unions{
		C:    layout.Choice{Sel: 4000000000, H: -5},
		Tv:   []layout.Tinted{{T: layout.TRED, S: "ab"}, {T: layout.TGREEN}, {T: layout.TBLUE, Inr: layout.Inner{P: 3, Q: -4}}},
		Cf:   [2]layout.Choice{{Sel: 2, Nm: layout.Named{Nm: "nm", K: 9}}, {Sel: 77, Other: 6}},
		Ov:   []layout.Optinner{nil, &layout.Inner{P: 1, Q: 2}},
		Of:   [3]layout.Optinner{&layout.Inner{P: 5, Q: 6}},
		On:   &layout.Named{Nm: "x", K: -1},
		Tail: 11,
	}
	for i, sp := range specs {
		cases := map[string]any{"lookup_result": lookups[0], "lookup_miss": lookups[1]}
		if i == 1 {
			exports := layout.Exports(&layout.Exportnode{ExDir: "/a",
				ExGroups: &layout.Groupnode{GrName: "g1", GrNext: &layout.Groupnode{GrName: "g2"}},
				ExNext:   &layout.Exportnode{ExDir: "/bb"}})
			cases = map[string]any{"unions": unions, "exports": exports}
		}
		d := build(t, cflags, sp)
		for name, want := range cases {
			a := d.ask(t, []string{"val " + name})[0]
			f := strings.Fields(a)
			if len(f) != 2 || f[0] != "ok" {
				t.Fatalf("%s: peer answered %q", name, a)
			}
			typ := strings.Replace(name, "lookup_miss", "lookup_result", 1)
			for _, rg := range rungsOf(t, sp.codecs[typ]) {
				got, err := rg.decode(unhex(t, f[1]))
				if err != nil || !testutil.Same(got.Elem().Interface(), want) {
					t.Errorf("%s on %s: %s, %v; want %s", name, rg.name, testutil.Show(got.Elem().Interface()), err, testutil.Show(want))
				}
			}
		}
	}
}

// TestInteropHostile: both sides refuse a discriminant no arm lists and
// no default covers, and truncated messages; both read any nonzero
// optional flag as "follows", and a discriminant only the default arm
// lists as that arm; and on a message with one 4-byte unit overwritten
// by a count, flag or discriminant value, they accept or refuse alike
// and, accepting, write the same bytes back.
func TestInteropHostile(t *testing.T) {
	cflags := toolchain(t)
	word := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.BigEndian.AppendUint32(b, w)
		}
		return b
	}
	fixed := map[string][][]byte{
		"tinted": {
			word(3, 1),             // no arm lists 3, and there is no default
			word(0xffffffff),       // nor this
			word(7, 1),             // TBLUE, its inner cut short
			word(2),                // TGREEN's void arm
			word(1, 2, 0x61620000), // TRED "ab"
			word(1, 9, 0, 0, 0, 0), // a string past its bound of 8
			word(7, 1, 0, 2)[:14],  // cut inside the hyper
		},
		"choice":   {word(0xf0000000, 5), word(4000000000, 1, 2), word(0)},
		"optinner": {word(2, 1, 0, 2), word(0xffffffff, 1, 0, 2), word(0), word(1, 1)},
		// A link flag of 2 and one of 0xffffffff, a list cut after a set
		// flag, and a list with no ending flag.
		"intlist": {word(5, 2, 6, 0xffffffff, 7, 0), word(5, 1), word(5, 1, 6)},
		"exports": {word(1, 1, 0x2f000000, 1, 2, 0x67310000, 0, 0), word(1, 0, 0, 1)},
		"lookup_result": {
			word(9),
			word(0x80000000),
			append(append(word(0, 5), make([]byte, 32)...), word(3, 0x74726900, 2, 7, 0xfffffff8, 0, 5, 0, 0, 1)...),
		},
	}
	r := rand.New(rand.NewSource(36))
	hostile := []uint32{0, 1, 2, 3, 7, 9, 0x80000000, 0xffffffff, 4000000000}
	for _, sp := range specs {
		t.Run(sp.file, func(t *testing.T) {
			d := build(t, cflags, sp)
			type sent struct {
				name string
				body []byte
			}
			var msgs []sent
			for _, name := range sortedNames(sp.codecs) {
				c := sp.codecs[name]
				for _, b := range fixed[name] {
					msgs = append(msgs, sent{name, b})
				}
				for i := 0; i < 60; i++ {
					v := reflect.New(c.GoType())
					fill(r, c.WireType(), v.Elem())
					body, err := rung{"compiled", c}.encode(v)
					if err != nil {
						t.Fatal(err)
					}
					if len(body) >= 4 {
						at := 4 * r.Intn(len(body)/4)
						binary.BigEndian.PutUint32(body[at:], hostile[r.Intn(len(hostile))])
					}
					if i%5 == 0 {
						body = body[:r.Intn(len(body)+1)]
					}
					msgs = append(msgs, sent{name, body})
				}
			}
			reqs := make([]string, len(msgs))
			for i, m := range msgs {
				reqs[i] = "rt " + m.name + " " + hexOf(m.body)
			}
			for i, a := range d.ask(t, reqs) {
				m := msgs[i]
				got := parseRT(t, a)
				for _, rg := range rungsOf(t, sp.codecs[m.name]) {
					v, err := rg.decode(m.body)
					if (err == nil) != got.ok {
						t.Fatalf("%s %x: %s says %v, libtirpc %q", m.name, m.body, rg.name, err, a)
					}
					if err != nil {
						if m.name == "tinted" && bytes.HasPrefix(m.body, word(3)) && !errors.Is(err, xdr.ErrBadUnion) {
							t.Fatalf("tinted %x: %s says %v, want %v", m.body, rg.name, err, xdr.ErrBadUnion)
						}
						continue
					}
					if hasNUL(v) {
						// libtirpc's strings are C strings: it writes one
						// back up to its first NUL (RFC 4506 4.11 has them
						// ASCII), Go writes every byte it read.
						continue
					}
					// A Go decoder takes a message's leading value and
					// leaves the rest, as xdr_<type> over xdrmem does.
					again, err := rg.encode(v)
					if err != nil || !bytes.Equal(again, got.again) {
						t.Fatalf("%s %x: %s writes back %x, %v; libtirpc %x", m.name, m.body, rg.name, again, err, got.again)
					}
				}
			}
		})
	}
}

func sortedNames(m map[string]*wire.Codec) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hasNUL reports whether a string anywhere in v holds a NUL byte.
func hasNUL(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		return strings.IndexByte(v.String(), 0) >= 0
	case reflect.Pointer:
		return !v.IsNil() && hasNUL(v.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if hasNUL(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasNUL(v.Field(i)) {
				return true
			}
		}
	}
	return false
}
