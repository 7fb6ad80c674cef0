package hostcorpus

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"specrpc/internal/rpcgen"
)

// requireEnv names the variable that turns a missing toolchain or corpus
// from a skip into a failure; it is internal/interop's.
const requireEnv = "SPECRPC_INTEROP"

// corpusDirs are where the host keeps its protocol files.
var corpusDirs = []string{"/usr/include/rpcsvc", "/usr/include/tirpc/rpc"}

// building are the files whose generated Go builds. The others are
// refused, by the parser or the generator, for reasons ROADMAP item 14
// lists (rpcgen extensions, libc types, a bool discriminant); a file
// that starts building belongs here.
var building = []string{
	"mount", "nfs_prot", "rex", "rquota", "rstat", "rusers", "sm_inter", "spray", "yppasswd",
}

// closureMarks are what generated code that marshals through the
// generic XDR layer's composites, or calls and registers closures, would
// contain: every procedure of a file that builds runs on plans.
var closureMarks = []string{"c.C.Call(", "srv.Register(", "xdr.Optional", "xdr.Vector", "xdr.Array"}

// brokenPkg matches the line go build prints before the errors of a
// package that does not build.
var brokenPkg = regexp.MustCompile(`(?m)^# \S+/(\w+)$`)

// TestHostCorpusBuilds generates compiled stubs for every .x file of the
// corpus and builds them all at once. Every file either builds, with a
// plan for each of its types and no closure, or is refused by the parser
// or the generator with an error that names the construct; Go that does
// not build is a failure.
func TestHostCorpusBuilds(t *testing.T) {
	missing := func(what string) {
		t.Helper()
		if os.Getenv(requireEnv) == "require" {
			t.Fatalf("%s, and %s=require", what, requireEnv)
		}
		t.Skipf("%s: install cpp, rpcsvc-proto and libtirpc-dev to run the host-corpus pin", what)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		missing("no go command")
	}
	if _, err := exec.LookPath("cpp"); err != nil {
		missing("no cpp")
	}
	var files []string
	for _, dir := range corpusDirs {
		xs, _ := filepath.Glob(filepath.Join(dir, "*.x"))
		files = append(files, xs...)
	}
	if len(files) == 0 {
		missing("no .x files under " + strings.Join(corpusDirs, " or "))
	}
	// The packages sit inside this module, where they may import its
	// internal runtime.
	tmp, err := os.MkdirTemp(".", "corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	verdict := make(map[string]string)
	for _, x := range files {
		name := strings.TrimSuffix(filepath.Base(x), ".x")
		src, err := exec.Command("cpp", "-P", x).Output()
		if err != nil {
			verdict[name] = "cpp: " + err.Error()
			continue
		}
		spec, err := rpcgen.Parse(string(src))
		if err != nil {
			verdict[name] = "refused by the parser: " + err.Error()
			continue
		}
		out, err := rpcgen.GenerateGo(spec, rpcgen.GoOptions{Package: name, Compiled: true})
		if err != nil {
			verdict[name] = "refused by the generator: " + err.Error()
			continue
		}
		if err := os.MkdirAll(filepath.Join(tmp, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, name, name+".go"), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mark := range closureMarks {
			if strings.Contains(out, mark) {
				t.Errorf("%s.x: generated Go holds %q", name, mark)
			}
		}
		verdict[name] = fmt.Sprintf("builds, %d plans", strings.Count(out, "wire.MustPlan["))
	}
	out, err := exec.Command(goBin, "build", "./"+tmp+"/...").CombinedOutput()
	broken := brokenPkg.FindAllStringSubmatch(string(out), -1)
	if err != nil && len(broken) == 0 {
		t.Fatalf("go build failed naming no package: %v\n%s", err, out)
	}
	for _, m := range broken {
		verdict[m[1]] = "generates Go that does not build"
	}
	names := make([]string, 0, len(verdict))
	for name := range verdict {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-14s %s", name, verdict[name])
	}
	for _, name := range building {
		if v := verdict[name]; !strings.HasPrefix(v, "builds") {
			t.Errorf("%s.x built and no longer does: %q", name, v)
		}
	}
	for _, m := range broken {
		t.Errorf("%s.x generates Go that does not build", m[1])
	}
	if t.Failed() {
		t.Logf("go build:\n%s", out)
	}
}
