package bench

// Batch mode: measures the syscall-amortization layer. Where throughput
// mode asks "how many calls per second", this harness asks "how many
// kernel crossings per call" — counted, not timed, so the result holds
// on the single-core reference host where timing-based wins wash out.
// TCP syscalls are counted by injectable conn/listener shims wrapping
// the real sockets (each Write on the shim is one write syscall on the
// kernel socket under it; the record batcher's coalesce path issues
// exactly one such Write per batch). UDP counters come from the
// server's batched-I/O layer itself, because a counting shim around a
// PacketConn would hide the kernel socket and disable the mmsg path it
// is trying to measure.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specrpc/internal/client"
	"specrpc/internal/server"
	"specrpc/internal/xdr"
)

// batchGroup is the ONC batched-call pattern in "calls" mode: per group,
// batchGroup-1 fire-and-forget CallBatched requests flushed by one
// terminal Call.
const batchGroup = 8

// loadSink is the load program's one-way procedure ("oneway" mode).
const loadSink = uint32(2)

// BatchOptions configures one batch-mode run.
type BatchOptions struct {
	// Transport is "tcp" or "udp".
	Transport string
	// Mode selects the batching variant measured against the same grid:
	//   "off"   — batching disabled everywhere: one syscall per record on
	//             TCP (client NoBatch + server WithWriteBatching(false)),
	//             one datagram per syscall on UDP. The baseline.
	//   "on"    — batching on (TCP group commit, UDP recvmmsg reads; UDP
	//             replies stay one write each): amortization comes from
	//             concurrency, so the win grows with Depth.
	//   "calls" — ONC batched calls (TCP only): groups of batchGroup-1
	//             CallBatched flushed by a terminal Call, the protocol-
	//             level batching of the Sun RPC lineage. A group is
	//             issued atomically per connection (Depth goroutines on
	//             one connection take turns), so writes/op is exactly
	//             1/batchGroup regardless of scheduling.
	//   "oneway" — "calls" with the batched calls sent to a procedure
	//             whose handler returns server.ErrNoReply, as the RFC
	//             has it: the group's only reply is the terminal call's,
	//             so every syscall column is exactly 1/batchGroup.
	Mode string
	// Clients, Depth, Calls, ArraySize as in ThroughputOptions.
	Clients, Depth, Calls, ArraySize int
}

func (o *BatchOptions) fill() error {
	if o.Transport == "" {
		o.Transport = "tcp"
	}
	if o.Mode == "" {
		o.Mode = "on"
	}
	switch o.Mode {
	case "off", "on":
	case "calls", "oneway":
		if o.Transport != "tcp" {
			return fmt.Errorf("bench: batched calls need a stream transport (got %q)", o.Transport)
		}
	default:
		return fmt.Errorf("bench: unknown batch mode %q", o.Mode)
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.Depth <= 0 {
		o.Depth = 1
	}
	if o.Calls <= 0 {
		o.Calls = 1000
	}
	if o.grouped() {
		// Whole groups only, so the writes/op arithmetic stays exact.
		o.Calls -= o.Calls % batchGroup
		if o.Calls == 0 {
			o.Calls = batchGroup
		}
	}
	if o.ArraySize <= 0 {
		o.ArraySize = 20
	}
	return nil
}

// grouped reports whether the mode issues ONC batched-call groups.
func (o *BatchOptions) grouped() bool { return o.Mode == "calls" || o.Mode == "oneway" }

// BatchResult is one measured configuration. The syscall columns are
// cumulative counts over the run divided by the call count; client
// reads and server counters include the small fixed tail of the last
// in-flight replies, so per-op numbers converge with Calls.
type BatchResult struct {
	Transport   string        `json:"transport"`
	Mode        string        `json:"mode"`
	Clients     int           `json:"clients"`
	Depth       int           `json:"depth"`
	Calls       int           `json:"calls"`
	ArraySize   int           `json:"n"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	CallsPerSec float64       `json:"calls_per_sec"`
	// ClientWritesPerOp is request-send syscalls per call on the client —
	// the headline number: 1.0 unbatched, shrinking toward 1/Depth under
	// coalescing and to 1/batchGroup in "calls" mode.
	ClientWritesPerOp float64 `json:"client_writes_per_op"`
	// ServerWritesPerOp / ServerReadsPerOp are the server-side reply and
	// request syscalls per call (UDP: WriteTo and recvmmsg calls per
	// call, so ServerWritesPerOp is 1.0 on every UDP row).
	ServerWritesPerOp float64 `json:"server_writes_per_op"`
	ServerReadsPerOp  float64 `json:"server_reads_per_op"`
	// ClientReadsPerOp is reply-receive syscalls per call on the client
	// (TCP rows only): with the record layer's read-ahead, 1.0 for a lone
	// caller and less when replies arrive in bursts.
	ClientReadsPerOp float64 `json:"client_reads_per_op,omitempty"`
	// Batched reports whether the UDP mmsg kernel path was active (always
	// false for TCP rows; the TCP mechanism is vectored writes, not mmsg).
	Batched bool `json:"mmsg,omitempty"`
}

// countConn counts Write calls and the Read calls that delivered bytes
// passing through to a kernel socket: each is one syscall that moved
// data, so the counters are the syscalls/op instrument for stream
// transports. (A Read is counted on return, not on entry: the read a
// served connection is parked in when the run ends moved nothing.)
type countConn struct {
	net.Conn
	writes, reads *atomic.Uint64
}

func (c countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// countListener wraps accepted connections in countConn, so every
// server-side read/write on every connection lands in two shared
// counters.
type countListener struct {
	net.Listener
	writes, reads *atomic.Uint64
}

func (l countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: conn, writes: l.writes, reads: l.reads}, nil
}

// Batch runs one batch-mode configuration and reports timed rate plus
// counted syscalls per call.
func Batch(o BatchOptions) (BatchResult, error) {
	if err := o.fill(); err != nil {
		return BatchResult{}, err
	}
	switch o.Transport {
	case "tcp":
		return batchTCP(o)
	case "udp":
		return batchUDP(o)
	}
	return BatchResult{}, fmt.Errorf("bench: batch mode supports tcp and udp (got %q)", o.Transport)
}

func batchTCP(o BatchOptions) (BatchResult, error) {
	s := newLoadServer(newGauge(0), server.WithWriteBatching(o.Mode != "off"))
	defer s.Close()
	// The echo's request half and nothing else: the one-way procedure.
	s.Register(loadProg, loadVers, loadSink, func(dec *xdr.XDR) (server.Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(server.ErrGarbageArgs, err)
		}
		return nil, server.ErrNoReply
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return BatchResult{}, fmt.Errorf("bench: loopback tcp: %w", err)
	}
	defer ln.Close()
	var srvWrites, srvReads, cliWrites, cliReads atomic.Uint64
	go func() { _ = s.ServeTCP(countListener{Listener: ln, writes: &srvWrites, reads: &srvReads}) }()

	callers := make([]*client.TCP, o.Clients)
	for i := range callers {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return BatchResult{}, fmt.Errorf("bench: dial: %w", err)
		}
		cfg := loadConfig(i)
		cfg.NoBatch = o.Mode == "off"
		callers[i] = client.NewTCP(countConn{Conn: conn, writes: &cliWrites, reads: &cliReads}, cfg)
	}
	defer func() {
		for _, c := range callers {
			_ = c.Close()
		}
	}()

	elapsed, err := driveBatch(o, func(i int) client.Caller { return callers[i] })
	if err != nil {
		return BatchResult{}, err
	}
	res := newBatchResult(o, elapsed)
	res.ClientWritesPerOp = perOp(cliWrites.Load(), o.Calls)
	res.ServerWritesPerOp = perOp(srvWrites.Load(), o.Calls)
	res.ServerReadsPerOp = perOp(srvReads.Load(), o.Calls)
	res.ClientReadsPerOp = perOp(cliReads.Load(), o.Calls)
	return res, nil
}

func batchUDP(o BatchOptions) (BatchResult, error) {
	batch := server.DefaultDatagramBatch
	if o.Mode == "off" {
		batch = 1
	}
	s := newLoadServer(newGauge(0), server.WithDatagramBatch(batch))
	defer s.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return BatchResult{}, fmt.Errorf("bench: loopback udp: %w", err)
	}
	defer pc.Close()
	go func() { _ = s.ServeUDP(pc) }()

	callers := make([]*client.UDP, o.Clients)
	for i := range callers {
		cc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return BatchResult{}, fmt.Errorf("bench: client socket: %w", err)
		}
		callers[i] = client.NewUDP(cc, pc.LocalAddr(), loadConfig(i))
	}
	defer func() {
		for _, c := range callers {
			_ = c.Close()
		}
	}()

	elapsed, err := driveBatch(o, func(i int) client.Caller { return callers[i] })
	if err != nil {
		return BatchResult{}, err
	}
	st := s.Snapshot()
	res := newBatchResult(o, elapsed)
	res.ServerReadsPerOp = perOp(st.DatagramReadCalls, o.Calls)
	res.ServerWritesPerOp = perOp(st.DatagramWrites, o.Calls)
	// One sendto per client call, by construction (retransmissions would
	// add to it, but a loopback run has none to speak of).
	res.ClientWritesPerOp = 1
	res.Batched = st.DatagramReadMsgs > st.DatagramReadCalls
	return res, nil
}

func newBatchResult(o BatchOptions, elapsed time.Duration) BatchResult {
	res := BatchResult{
		Transport: o.Transport, Mode: o.Mode,
		Clients: o.Clients, Depth: o.Depth,
		Calls: o.Calls, ArraySize: o.ArraySize,
		Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.CallsPerSec = float64(o.Calls) / elapsed.Seconds()
	}
	return res
}

func perOp(n uint64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(n) / float64(calls)
}

// driveBatch distributes o.Calls over Clients×Depth goroutines (ticket
// counter, as in Throughput). In "calls" and "oneway" mode each ticket is
// one group:
// batchGroup-1 fire-and-forget calls and a terminal echo call that
// flushes them, issued under the connection's group lock: a terminal
// call from another goroutine — or its group-commit leader, still
// looping — would otherwise carry off a half-queued group, and the rest
// of it would cost a second write.
func driveBatch(o BatchOptions, callerFor func(i int) client.Caller) (time.Duration, error) {
	var tickets atomic.Int64
	perTicket, batchedProc := 1, loadEcho
	if o.grouped() {
		perTicket = batchGroup
	}
	if o.Mode == "oneway" {
		batchedProc = loadSink
	}
	tickets.Store(int64(o.Calls / perTicket))

	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	groupMu := make([]sync.Mutex, o.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < o.Clients; ci++ {
		for d := 0; d < o.Depth; d++ {
			wg.Add(1)
			go func(c client.Caller, group *sync.Mutex) {
				defer wg.Done()
				in := make([]int32, o.ArraySize)
				for i := range in {
					in[i] = int32(i)
				}
				marshal := func(x *xdr.XDR) error {
					return xdr.Array(x, &in, xdr.NoSizeLimit, (*xdr.XDR).Long)
				}
				var out []int32
				unmarshal := func(x *xdr.XDR) error {
					return xdr.Array(x, &out, xdr.NoSizeLimit, (*xdr.XDR).Long)
				}
				one := func() error {
					if o.grouped() {
						group.Lock()
						defer group.Unlock()
						tc := c.(*client.TCP)
						for k := 0; k < batchGroup-1; k++ {
							if err := tc.CallBatched(batchedProc, marshal); err != nil {
								return err
							}
						}
					}
					out = nil
					if err := c.Call(loadEcho, marshal, unmarshal); err != nil {
						return err
					}
					if len(out) != o.ArraySize {
						return fmt.Errorf("bench: echo length %d, want %d", len(out), o.ArraySize)
					}
					return nil
				}
				for tickets.Add(-1) >= 0 {
					if err := one(); err != nil {
						setErr(err)
						return
					}
				}
			}(callerFor(ci), &groupMu[ci])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return 0, firstErr
	}
	return elapsed, nil
}

// FormatBatch renders the batched-vs-unbatched table.
func FormatBatch(rows []BatchResult) string {
	var sb strings.Builder
	sb.WriteString("Batch: syscalls per call, counted via conn shims (tcp) / batch-I/O layer (udp)\n")
	fmt.Fprintf(&sb, "%-9s %-6s %8s %6s %7s %12s %9s %9s %9s %9s %6s\n",
		"Transport", "Mode", "Clients", "Depth", "Calls", "Calls/s",
		"cliW/op", "cliR/op", "srvW/op", "srvR/op", "mmsg")
	for _, r := range rows {
		cliR := "-" // counted by the stream shim only
		if r.Transport == "tcp" {
			cliR = fmt.Sprintf("%.3f", r.ClientReadsPerOp)
		}
		fmt.Fprintf(&sb, "%-9s %-6s %8d %6d %7d %12.0f %9.3f %9s %9.3f %9.3f %6v\n",
			r.Transport, r.Mode, r.Clients, r.Depth, r.Calls, r.CallsPerSec,
			r.ClientWritesPerOp, cliR, r.ServerWritesPerOp, r.ServerReadsPerOp, r.Batched)
	}
	return sb.String()
}
