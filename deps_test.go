package specrpc

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// productDeps are the packages of this module that the product — a
// client and a server — links. The stub generator is not among them: it
// is a tool, as the system rpcgen is beside libtirpc. Derivation still
// pulls the specializer (tempo, minic) in through wire; when it leaves
// wire, those five leave this list.
var productDeps = []string{
	"specrpc/internal/client",
	"specrpc/internal/clock",
	"specrpc/internal/minic",
	"specrpc/internal/minic/lib",
	"specrpc/internal/platform/batchio",
	"specrpc/internal/rpcmsg",
	"specrpc/internal/server",
	"specrpc/internal/tempo",
	"specrpc/internal/tempo/bta",
	"specrpc/internal/tempo/planext",
	"specrpc/internal/wire",
	"specrpc/internal/xdr",
}

// TestProductDeps pins the module packages internal/client and
// internal/server depend on, so a package reaching the runtime shows up
// here as a decision rather than as a larger binary.
func TestProductDeps(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to list the dependencies with")
	}
	out, err := exec.Command(goBin, "list", "-deps", "./internal/client", "./internal/server").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var got []string
	for _, p := range strings.Fields(string(out)) {
		if strings.HasPrefix(p, "specrpc/") {
			got = append(got, p)
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, productDeps) {
		t.Errorf("client and server depend on\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(productDeps, "\n\t"))
	}
}
