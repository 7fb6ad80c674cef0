//go:build !race

// The counts hold only at full speed: under the race detector a burst's
// replies fan out to workers and leave in several writes.

package integration

import (
	"bufio"
	"bytes"
	"net"
	"os"
	"strconv"
	"testing"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// procIO reads the process's read and write syscall counts from
// /proc/self/io, skipping the test where the file cannot be read.
func procIO(t *testing.T) (reads, writes uint64) {
	t.Helper()
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no syscall counts: %v", err)
	}
	found := 0
	for sc := bufio.NewScanner(bytes.NewReader(b)); sc.Scan(); {
		name, val, _ := bytes.Cut(sc.Bytes(), []byte(": "))
		var dst *uint64
		switch string(name) {
		case "syscr":
			dst = &reads
		case "syscw":
			dst = &writes
		default:
			continue
		}
		if *dst, err = strconv.ParseUint(string(val), 10, 64); err != nil {
			t.Skipf("unreadable %s in /proc/self/io: %v", name, err)
		}
		found++
	}
	if found != 2 {
		t.Skip("/proc/self/io has no syscr/syscw")
	}
	return reads, writes
}

// TestStreamCallSyscalls pins the read and write syscalls of serial
// calls through the committed stubs over loopback TCP, client and server
// together, process-wide: what the record layer's read-ahead window,
// its one-Write records and the batcher's coalesced writes cost. Each
// side reads a record and then meets an empty socket once before it
// parks, so a lone call costs 4 reads and 2 writes; a record larger
// than the window costs each side one more read for its tail; a burst
// of 7 CallBatched and a terminal call leaves in one write, is read in
// one, and is answered by one reply. The bounds leave room for a read
// that finds its data already there (fewer), for the few reads of
// /proc/self/io itself and for the runtime waking its poller (an
// eventfd write and read), not for a layer that reads or writes more
// per record. Serial by design: never t.Parallel.
func TestStreamCallSyscalls(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	procIO(t)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	defer s.Close()
	ct.RegisterShapeProgV2(s, shapeService{})
	go func() { _ = s.ServeTCP(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcp := client.NewTCP(conn, client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers})
	defer tcp.Close()
	stubs := ct.ShapeProgV2Client{C: tcp}

	scale := func(n int) func() error {
		arg := make(ct.Numbers, n)
		return func() error {
			for i := range arg {
				arg[i] = int32(i)
			}
			_, err := stubs.Scale(&arg)
			return err
		}
	}
	nums := make(ct.Numbers, 100)
	batched := func(x *xdr.XDR) error { return nums.Marshal(x) }
	burst := func() error {
		for i := 0; i < 7; i++ {
			if err := tcp.CallBatched(ct.ShapeProgV2ProcSum, batched); err != nil {
				return err
			}
		}
		_, err := stubs.Sum(&nums)
		return err
	}

	for _, tc := range []struct {
		name             string
		op               func() error
		calls            int // per op
		maxRead, maxWrit float64
	}{
		{"Scale(20)", scale(20), 1, 4.2, 2.1},
		{"Scale(2000)", scale(2000), 1, 6.2, 2.1},
		{"7 CallBatched + Sum", burst, 8, 0.6, 0.3},
	} {
		const ops = 400
		for i := 0; i < 50; i++ { // fill the pools, settle the connection
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		r0, w0 := procIO(t)
		for i := 0; i < ops; i++ {
			if err := tc.op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		r1, w1 := procIO(t)
		n := float64(ops * tc.calls)
		reads, writes := float64(r1-r0)/n, float64(w1-w0)/n
		t.Logf("%s: %.3f reads, %.3f writes per call", tc.name, reads, writes)
		if reads > tc.maxRead || writes > tc.maxWrit {
			t.Errorf("%s: %.3f reads and %.3f writes per call, want at most %.2f and %.2f",
				tc.name, reads, writes, tc.maxRead, tc.maxWrit)
		}
	}
}
