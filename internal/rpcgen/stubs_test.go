package rpcgen

import (
	goparser "go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// committedStubs are the generated files checked into the tree, each
// with the spec and options that produce it.
var committedStubs = []struct {
	spec, stubs string
	opts        GoOptions
}{
	{"testdata/rich.x", "../compiledtest/stubs.go", GoOptions{Package: "compiledtest", Compiled: true}},
	{"testdata/layout.x", "../compiledtest/layout/stubs.go", GoOptions{Package: "layout", Compiled: true}},
	{"../bench/livespecrpc/livespec.x", "../bench/livespecrpc/stubs.go", GoOptions{Package: "livespecrpc", Compiled: true}},
	{"../../examples/rmin/rmin.x", "../../examples/rmin/rminrpc/rmin_stubs.go", GoOptions{Package: "rminrpc", Compiled: true}},
}

// TestCommittedStubsCurrent regenerates every committed stub file in
// memory and compares byte for byte: the generator and the code the live
// path actually runs cannot drift apart, and a generator refactor that
// claims not to move the emitted source is held to it.
func TestCommittedStubsCurrent(t *testing.T) {
	for _, tc := range committedStubs {
		src, err := os.ReadFile(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.stubs)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		got, err := GenerateGo(spec, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if got != string(want) {
			t.Errorf("%s is stale: regenerate it from %s (rpcgen -compiled -pkg %s)", tc.stubs, tc.spec, tc.opts.Package)
		}
	}
}

// FuzzParse feeds arbitrary text to the .x front end: Parse never
// panics, and whatever it accepts GenerateGo turns — plan-only and with
// compiled codecs — into either an error or Go source that parses and
// holds no closure (closureMarks).
func FuzzParse(f *testing.F) {
	for _, tc := range committedStubs {
		src, err := os.ReadFile(tc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(`union u switch (int a) { case`)
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := Parse(src)
		if err != nil {
			return
		}
		for _, compiled := range []bool{false, true} {
			out, err := GenerateGo(spec, GoOptions{Compiled: compiled})
			if err != nil {
				continue
			}
			if _, err := goparser.ParseFile(token.NewFileSet(), "stubs.go", out, goparser.AllErrors); err != nil {
				t.Fatalf("compiled=%v: generated Go does not parse: %v\n%s", compiled, err, out)
			}
			for _, mark := range closureMarks {
				if strings.Contains(out, mark) {
					t.Fatalf("compiled=%v: generated Go holds %q\n%s", compiled, mark, out)
				}
			}
		}
	})
}
