//go:build !race

// The counts hold only at full speed: under the race detector a burst's
// replies fan out to workers.

package integration

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"testing"
	"time"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// crossings is the process's count so far of goroutines returning to
// run, from a park or a syscall: the runtime's /sched/latencies
// histogram samples one such return in eight per goroutine (go1.24's
// gTrackingPeriod). The period is the runtime's own, no API promise, so
// TestCallCrossings calibrates it before it trusts it.
func crossings() float64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return 8 * float64(n)
}

// readProcIO reads the process's read and write syscall counts from
// /proc/self/io, which only Linux has.
func readProcIO() (reads, writes uint64, err error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, err
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
			return 0, 0, fmt.Errorf("unreadable %s in /proc/self/io: %v", name, err)
		}
		found++
	}
	if found != 2 {
		return 0, 0, errors.New("/proc/self/io has no syscr/syscw")
	}
	return reads, writes, nil
}

// shapeOverTCP serves shapeService on loopback TCP and returns a client
// of it. Both close when the test ends.
func shapeOverTCP(t *testing.T) (*client.TCP, ct.ShapeProgV2Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	t.Cleanup(func() { s.Close() })
	ct.RegisterShapeProgV2(s, shapeService{})
	go func() { _ = s.ServeTCP(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tcp := client.NewTCP(conn, client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers})
	t.Cleanup(func() { tcp.Close() })
	return tcp, ct.ShapeProgV2Client{C: tcp}
}

// scaleOp is one Scale call of n int32s.
func scaleOp(stubs ct.ShapeProgV2Client, n int) func() error {
	arg := make(ct.Numbers, n)
	return func() error {
		for i := range arg {
			arg[i] = int32(i)
		}
		_, err := stubs.Scale(&arg)
		return err
	}
}

// burstOp is 7 CallBatched Sums of 100 int32s and a terminal Sum: 8
// calls that leave in one write.
func burstOp(tcp *client.TCP, stubs ct.ShapeProgV2Client) func() error {
	nums := make(ct.Numbers, 100)
	batched := func(x *xdr.XDR) error { return nums.Marshal(x) }
	return func() error {
		for i := 0; i < 7; i++ {
			if err := tcp.CallBatched(ct.ShapeProgV2ProcSum, batched); err != nil {
				return err
			}
		}
		_, err := stubs.Sum(&nums)
		return err
	}
}

// TestCallCrossings pins the scheduler crossings of serial calls through
// the committed stubs over loopback, client and server together,
// process-wide: every return of a goroutine to run, the hand-offs no
// syscall count sees. A lone stream call is 8: its six read and write
// syscalls (TestStreamCallSyscalls) and two parks, the server's reader
// waiting for the call and the caller for its reply. A Scale(2000)
// reads each record's tail in one more syscall a side; a burst of 8
// calls costs one lone call's crossings; a datagram call adds the
// client's pump, which reads the reply and hands it to the caller, and
// the server's reader, which hands the call to a worker. The bounds
// leave room for the runtime's own wake-ups (its GC workers, timers and
// poller), not for one more hand-off a call. A busy host can only add
// crossings: a thread stalled under a lent token for lendLimit makes the
// server hand its calls off for lendAgain, a whole window's worth. So a
// row is measured again, up to five times and past lendAgain each time,
// until one window is within its bound; a path that hands off on every
// call misses it on all five. On Linux the stream rows log crossings
// minus syscalls: the parks. Serial by design: never t.Parallel.
func TestCallCrossings(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	const rounds = 20000
	c0 := crossings()
	for i := 0; i < rounds; i++ {
		ping <- i
		<-pong
	}
	per := (crossings() - c0) / rounds
	close(ping)
	<-pong
	if per < 1.98 || per > 2.02 {
		t.Skipf("%s: a channel ping-pong reads %.3f crossings a round trip, not 2.00: the runtime does not sample /sched/latencies one in eight", runtime.Version(), per)
	}
	t.Logf("calibration: %.3f crossings a ping-pong round trip", per)

	tcp, stubs := shapeOverTCP(t)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New()
	defer s.Close()
	ct.RegisterShapeProgV2(s, shapeService{})
	go func() { _ = s.ServeUDP(pc) }()
	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	udp := client.NewUDP(cconn, pc.LocalAddr(), client.Config{Prog: ct.ShapeProgV2Prog, Vers: ct.ShapeProgV2Vers})
	defer udp.Close()

	for _, tc := range []struct {
		name   string
		op     func() error
		calls  int // per op
		max    float64
		stream bool
	}{
		{"tcp Scale(20)", scaleOp(stubs, 20), 1, 8.2, true},
		{"tcp Scale(2000)", scaleOp(stubs, 2000), 1, 10.5, true},
		{"tcp 7 CallBatched + Sum", burstOp(tcp, stubs), 8, 1.05, true},
		{"udp Scale(20)", scaleOp(ct.ShapeProgV2Client{C: udp}, 20), 1, 10.3, false},
	} {
		const calls, tries = 4000, 5
		run := func(ops int) {
			for i := 0; i < ops; i++ {
				if err := tc.op(); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
			}
		}
		var per float64
		for try := 0; try < tries; try++ {
			if try > 0 {
				time.Sleep(200 * time.Millisecond) // past any lendAgain a stall began
			}
			run(50) // fill the pools, settle the connection
			r0, w0, ioErr := readProcIO()
			c0 := crossings()
			run(calls / tc.calls)
			per = (crossings() - c0) / calls
			r1, w1, _ := readProcIO()
			if tc.stream && ioErr == nil {
				t.Logf("%s: %.3f crossings a call, %.3f of them no syscall", tc.name, per, per-float64(r1-r0+w1-w0)/calls)
			} else {
				t.Logf("%s: %.3f crossings a call", tc.name, per)
			}
			if per <= tc.max {
				break
			}
		}
		if per > tc.max {
			t.Errorf("%s: %.3f crossings a call on each of %d tries, want at most %.2f", tc.name, per, tries, tc.max)
		}
	}
}
