package integration

// Concurrency tests for the multiplexed transport: many goroutines
// interleaving calls on ONE connection, with replies delivered out of
// order. All of these must stay clean under `go test -race`.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/netsim"
	"specrpc/internal/server"
	"specrpc/internal/testutil"
	"specrpc/internal/xdr"
)

// dialTCPServer starts the echo server on loopback TCP and returns a
// multiplexed client on one connection.
func dialTCPServer(t *testing.T, s *server.Server) *client.TCP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	go func() { _ = s.ServeTCP(ln) }()
	t.Cleanup(func() { _ = s.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewTCP(conn, client.Config{Prog: prog, Vers: vers, Timeout: 5 * time.Second})
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestTCPConcurrentInterleavedCalls drives one TCP connection from many
// goroutines with varied payload sizes (including multi-fragment
// records) and verifies every echo, exercising XID demultiplexing of
// interleaved replies.
func TestTCPConcurrentInterleavedCalls(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, _ := newEchoServer()
	c := dialTCPServer(t, s)

	const goroutines = 8
	const callsEach = 20
	sizes := []int{1, 100, 1500, 5000} // 5000 ints spans multiple 4000-byte fragments
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < callsEach; k++ {
				size := sizes[(g+k)%len(sizes)]
				in := make([]int32, size)
				for i := range in {
					in[i] = int32(g*1_000_000 + k*10_000 + i)
				}
				var out []int32
				if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
					errs[g] = err
					return
				}
				if len(out) != size {
					errs[g] = errors.New("wrong echo length")
					return
				}
				for i := range out {
					if out[i] != in[i] {
						errs[g] = errors.New("wrong echo payload")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestTCPBarrierRequiresFourInFlight registers a handler that blocks
// until four calls are executing simultaneously. With four goroutines
// issuing one call each over ONE connection, the test can only pass if
// the transport truly keeps four calls in flight on that connection.
func TestTCPBarrierRequiresFourInFlight(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	const want = 4
	var (
		mu      sync.Mutex
		cur     int
		release = make(chan struct{})
		opened  bool
	)
	s := server.New(server.WithWorkers(want))
	s.Register(prog, vers, procEcho, func(dec *xdr.XDR) (server.Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		mu.Lock()
		cur++
		if cur >= want && !opened {
			opened = true
			close(release)
		}
		mu.Unlock()
		<-release
		return func(enc *xdr.XDR) error {
			return xdr.Array(enc, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
		}, nil
	})
	c := dialTCPServer(t, s)

	var wg sync.WaitGroup
	errs := make([]error, want)
	for g := 0; g < want; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := []int32{int32(g)}
			var out []int32
			errs[g] = c.Call(procEcho, echoArgs(&in), echoArgs(&out))
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", g, err)
		}
	}
}

// TestTCPOutOfOrderReplies proves a fast call issued after a slow one
// completes first on the same connection: the slow handler is gated on
// the fast call's completion, which would deadlock a transport that
// serves one call at a time per connection.
func TestTCPOutOfOrderReplies(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	const procGated = uint32(7)
	fastDone := make(chan struct{})
	s := server.New()
	s.Register(prog, vers, procEcho, func(dec *xdr.XDR) (server.Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		return func(enc *xdr.XDR) error {
			return xdr.Array(enc, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long)
		}, nil
	})
	s.Register(prog, vers, procGated, func(dec *xdr.XDR) (server.Marshal, error) {
		<-fastDone // reply only after the fast call finished
		return func(*xdr.XDR) error { return nil }, nil
	})
	c := dialTCPServer(t, s)

	var slowRet, fastRet atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	started := make(chan struct{})
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		close(started)
		errs[0] = c.Call(procGated, client.Void, client.Void)
		slowRet.Store(time.Now().UnixNano())
	}()
	go func() {
		defer wg.Done()
		<-started // issue the fast call after the slow one
		time.Sleep(20 * time.Millisecond)
		in := []int32{42}
		var out []int32
		errs[1] = c.Call(procEcho, echoArgs(&in), echoArgs(&out))
		fastRet.Store(time.Now().UnixNano())
		close(fastDone)
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("slow err = %v, fast err = %v", errs[0], errs[1])
	}
	if fastRet.Load() >= slowRet.Load() {
		t.Fatal("fast call did not complete before the gated slow call")
	}
}

// TestSimConcurrentCallsOneClient issues interleaved calls from many
// goroutines over a SINGLE netsim datagram client, exercising the
// demultiplexer's XID routing on the datagram path.
func TestSimConcurrentCallsOneClient(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New()
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{Timeout: 5 * time.Second})
	defer c.Close()

	const goroutines = 8
	const callsEach = 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < callsEach; k++ {
				in := []int32{int32(g), int32(k)}
				var out []int32
				if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
					errs[g] = err
					return
				}
				if len(out) != 2 || out[0] != int32(g) || out[1] != int32(k) {
					errs[g] = errors.New("wrong echo")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestUDPLoopbackConcurrentCallsOneClient is the same interleaving over
// one real UDP socket.
func TestUDPLoopbackConcurrentCallsOneClient(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	s, _ := newEchoServer()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	go func() { _ = s.ServeUDP(pc) }()
	defer s.Close()

	cconn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := client.NewUDP(cconn, pc.LocalAddr(), client.Config{
		Prog: prog, Vers: vers, Timeout: 5 * time.Second,
	})
	defer c.Close()

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				in := []int32{int32(g * k)}
				var out []int32
				if err := c.Call(procEcho, echoArgs(&in), echoArgs(&out)); err != nil {
					errs[g] = err
					return
				}
				if len(out) != 1 || out[0] != int32(g*k) {
					errs[g] = errors.New("wrong echo")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestCloseUnblocksInFlightCalls closes the client while calls wait on a
// never-replying server; every call must fail with ErrClosed promptly
// instead of hanging until the timeout.
func TestCloseUnblocksInFlightCalls(t *testing.T) {
	t.Cleanup(testutil.NoLeak(t))
	n := netsim.New(netsim.WithFaults(func(_, _ net.Addr, _ int, _ []byte) netsim.Verdict {
		return netsim.Drop // black hole
	}))
	startSimServer(t, n)
	c := simClient(n, "client", client.Config{
		Timeout: 30 * time.Second, Retransmit: 10 * time.Second,
	})

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := []int32{1}
			errs[g] = c.Call(procEcho, echoArgs(&in), client.Void)
		}(g)
	}
	time.Sleep(50 * time.Millisecond) // let the calls get in flight
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("calls did not unblock on Close")
	}
	for g, err := range errs {
		if !errors.Is(err, client.ErrClosed) {
			t.Fatalf("call %d err = %v, want ErrClosed", g, err)
		}
	}
}
