package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/platform/batchio"
	"specrpc/internal/rpcmsg"
	"specrpc/internal/testutil"
	"specrpc/internal/wire"
	"specrpc/internal/xdr"
)

// FuzzHandleCall feeds arbitrary bytes to the single dispatch path, over
// a server holding every kind of handler: closure, typed on a fused
// plan, typed on a Generic-mode plan, failing, panicking, and one-way.
// handleCall must never panic; it returns an error exactly when the
// reference header walk (CallHeader.Marshal) rejects the input; every
// reply it emits parses with ReplyHeader.Marshal, echoes the request's
// XID and leaves the caller's reserved prefix untouched; and it emits
// none only for a call the one-way handler received.
func FuzzHandleCall(f *testing.F) {
	// Bounded arrays throughout: an unbounded count would let the fuzzer
	// find the handlers' allocations instead of the dispatch path's bugs.
	const bound = 64
	plan := wire.MustPlan[[]int32](wire.VarArrayT(bound, wire.Int32T()), wire.Specialized)
	genPlan := wire.MustPlan[[]int32](wire.VarArrayT(bound, wire.Int32T()), wire.Generic)
	echo := func(arg *[]int32) (*[]int32, error) { return arg, nil }
	s := New()
	s.Register(testProg, testVers, procEcho, func(dec *xdr.XDR) (Marshal, error) {
		var arr []int32
		if err := xdr.Array(dec, &arr, bound, (*xdr.XDR).Long); err != nil {
			return nil, errors.Join(ErrGarbageArgs, err)
		}
		return func(enc *xdr.XDR) error { return xdr.Array(enc, &arr, bound, (*xdr.XDR).Long) }, nil
	})
	s.Register(testProg, testVers, procFail, func(*xdr.XDR) (Marshal, error) {
		return nil, errors.New("handler exploded")
	})
	s.Register(testProg, testVers, procPanic, func(*xdr.XDR) (Marshal, error) { panic("handler bug") })
	s.Register(testProg, testVers, procOneWay, func(*xdr.XDR) (Marshal, error) { return nil, ErrNoReply })
	RegisterTyped(s, testProg, testVers, 3, plan, plan, echo)
	RegisterTyped(s, testProg, testVers+2, 3, genPlan, genPlan, echo)

	arr := []int32{1, 2, 3}
	args := func(x *xdr.XDR) error { return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	for _, c := range []struct{ vers, proc uint32 }{
		{testVers, procEcho}, {testVers, procFail}, {testVers, procPanic}, {testVers, procOneWay}, {testVers, 3},
		{testVers + 2, 3}, {testVers + 1, 3}, {testVers + 9, 3}, {testVers, 99},
	} {
		f.Add(buildCall(f, 7, c.vers, c.proc, args))
	}
	f.Add(buildCall(f, 7, testVers, 3, nil)) // header only: GARBAGE_ARGS
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0}) // xid + CALL, then truncated

	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	f.Fuzz(func(t *testing.T, req []byte) {
		var ref rpcmsg.CallHeader
		refErr := ref.Marshal(xdr.NewDecoder(xdr.NewMemDecode(req)))

		out, err := s.handleCall(req, append(make([]byte, 0, 64), prefix...))
		if (err != nil) != (refErr != nil) {
			t.Fatalf("handleCall err=%v, reference header walk err=%v on %x", err, refErr, req)
		}
		if err != nil {
			return
		}
		if out == nil {
			if ref.Prog != testProg || ref.Vers != testVers || ref.Proc != procOneWay {
				t.Fatalf("no reply to a call for prog %#x vers %d proc %d: %x", ref.Prog, ref.Vers, ref.Proc, req)
			}
			return
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("reserved prefix clobbered: %x", out)
		}
		var rh rpcmsg.ReplyHeader
		if err := rh.Marshal(xdr.NewDecoder(xdr.NewMemDecode(out[len(prefix):]))); err != nil {
			t.Fatalf("reply does not parse: %v (%x)", err, out)
		}
		if rh.XID != ref.XID {
			t.Fatalf("reply xid %d, request xid %d", rh.XID, ref.XID)
		}
	})
}

// FuzzServeDatagram feeds hostile datagram sequences from one to three
// netsim peers through the datagram path — the call parse, the call
// table and dispatch — over a server whose handlers count their runs.
// The input is a config byte (peers, cache on or off, a datagram buffer
// small enough to turn big replies into SYSTEM_ERR) and then steps, each
// an op byte and a peer byte: raw bytes, a well-formed call from a small
// XID space, a call cut short, or a call header over raw arguments.
// Nothing may panic; every datagram sent back goes to the sender, parses
// as a reply and carries the request's XID; a datagram the call parse
// rejects gets nothing and runs nothing; and a call whose (peer, xid,
// proc) entry the table holds is answered with that entry's reply and
// not executed again.
func FuzzServeDatagram(f *testing.F) {
	type callID struct{ vers, proc uint32 }
	calls := []callID{
		{testVers, procEcho}, {testVers, procFail}, {testVers, procPanic},
		{testVers, procOneWay}, {testVers, 99}, {testVers + 1, procEcho},
	}
	registered := func(p procKey) bool {
		return p.prog == testProg && p.vers == testVers &&
			(p.proc == procEcho || p.proc == procFail || p.proc == procPanic || p.proc == procOneWay)
	}
	const (
		maxSteps = 64 // no more distinct keys than the cache holds: nothing is evicted
		cacheCap = 64
	)
	seed := func(cfg byte, steps ...[]byte) []byte {
		b := []byte{cfg}
		for _, s := range steps {
			b = append(b, s...)
		}
		return b
	}
	call := func(peer, xid, c, nargs byte) []byte { return []byte{1, peer, xid, c | nargs<<4} }
	f.Add(seed(0, call(0, 7, 0, 2), []byte{4 << 2, 0, 0, 0, 0, 7}, call(0, 7, 1, 0), call(0, 7, 0, 2)))
	f.Add(seed(2|8, call(0, 1, 0, 12), call(1, 1, 0, 12), call(2, 1, 3, 0), call(2, 1, 3, 0), call(1, 1, 2, 0), call(1, 1, 2, 0)))
	f.Add(seed(4, call(0, 3, 0, 1), call(0, 3, 0, 1), []byte{2 | 9<<2, 0, 3, 0}, []byte{3 | 3<<2, 0, 3, 0, 0, 0, 0}))
	f.Add(seed(1, []byte{0, 1}, []byte{32 << 2, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		data = data[1:]
		npeers := 1 + int(cfg%3)
		capacity := cacheCap
		if cfg&4 != 0 {
			capacity = 0
		}
		opts := []Option{WithCacheSize(capacity)}
		if cfg&8 != 0 {
			opts = append(opts, WithBufSize(64)) // echoes of 9+ ints overflow it
		}
		var execs atomic.Int64
		s := New(opts...)
		count := func(h Proc) Proc {
			return func(dec *xdr.XDR) (Marshal, error) { execs.Add(1); return h(dec) }
		}
		s.Register(testProg, testVers, procEcho, count(func(dec *xdr.XDR) (Marshal, error) {
			var arr []int32 // bounded, as in FuzzHandleCall
			if err := xdr.Array(dec, &arr, 64, (*xdr.XDR).Long); err != nil {
				return nil, errors.Join(ErrGarbageArgs, err)
			}
			return func(enc *xdr.XDR) error { return xdr.Array(enc, &arr, 64, (*xdr.XDR).Long) }, nil
		}))
		s.Register(testProg, testVers, procFail, count(func(*xdr.XDR) (Marshal, error) {
			return nil, errors.New("handler exploded")
		}))
		s.Register(testProg, testVers, procPanic, count(func(*xdr.XDR) (Marshal, error) { panic("handler bug") }))
		s.Register(testProg, testVers, procOneWay, count(func(*xdr.XDR) (Marshal, error) { return nil, ErrNoReply }))

		n := netsim.New()
		bc := batchio.New(n.Attach("server"), 1)
		peers := make([]*netsim.Endpoint, npeers)
		for i := range peers {
			peers[i] = n.Attach(netsim.Addr(fmt.Sprintf("peer-%d", i)))
		}
		// drain returns what peer i has been sent since the last drain.
		buf := make([]byte, 9000)
		drain := func(i int) [][]byte {
			var got [][]byte
			_ = peers[i].SetReadDeadline(time.Now())
			for {
				nr, _, err := peers[i].ReadFrom(buf)
				if err != nil {
					return got
				}
				got = append(got, append([]byte(nil), buf[:nr]...))
			}
		}

		type held struct {
			p     procKey
			reply []byte // nil: the call sent none
		}
		table := map[cacheKey]held{}
		for step := 0; step < maxSteps && len(data) >= 2; step++ {
			op, peer := data[0], int(data[1])%npeers
			data = data[2:]
			var req []byte
			if op&3 == 0 {
				k := min(int(op>>2), len(data))
				req, data = data[:k], data[k:]
			} else {
				if len(data) < 2 {
					return
				}
				xid, c := uint32(data[0]&7), calls[int(data[1]&15)%len(calls)]
				args := make([]int32, data[1]>>4)
				data = data[2:]
				req = buildCall(t, xid, c.vers, c.proc, func(x *xdr.XDR) error {
					if op&3 == 3 {
						return nil
					}
					return xdr.Array(x, &args, xdr.NoSizeLimit, (*xdr.XDR).Long)
				})
				switch op & 3 {
				case 2: // cut short
					req = req[:len(req)*int(op>>2)/64]
				case 3: // raw argument bytes
					k := min(int(op>>2), len(data))
					req, data = append(req, data[:k]...), data[k:]
				}
			}

			before := execs.Load()
			s.answerDatagram(bc, netsim.Addr(fmt.Sprintf("peer-%d", peer)), req)
			ran := execs.Load() - before
			var sent [][]byte
			for i := range peers {
				got := drain(i)
				if i != peer && len(got) > 0 {
					t.Fatalf("step %d: peer %d's datagram answered to peer %d", step, peer, i)
				}
				if i == peer {
					sent = got
				}
			}
			if len(sent) > 1 {
				t.Fatalf("step %d: %d replies to one datagram", step, len(sent))
			}

			xid, prog, vers, proc, _, ok := rpcmsg.CallBody(req)
			if !ok {
				if len(sent) != 0 || ran != 0 {
					t.Fatalf("step %d: non-call %x got %d replies and ran %d handlers", step, req, len(sent), ran)
				}
				continue
			}
			var reply []byte
			if len(sent) == 1 {
				reply = sent[0]
				var rh rpcmsg.ReplyHeader
				if err := rh.Marshal(xdr.NewDecoder(xdr.NewMemDecode(reply))); err != nil {
					t.Fatalf("step %d: reply does not parse: %v (%x)", step, err, reply)
				}
				if rh.XID != xid {
					t.Fatalf("step %d: reply xid %d, request xid %d", step, rh.XID, xid)
				}
			}
			k, p := cacheKey{makePeerKey(peers[peer].LocalAddr()), xid}, procKey{prog, vers, proc}
			if h, ok := table[k]; ok && h.p == p && capacity > 0 {
				if ran != 0 {
					t.Fatalf("step %d: (peer %d, xid %d, proc %d) executed again while its entry is held", step, peer, xid, proc)
				}
				if !bytes.Equal(reply, h.reply) {
					t.Fatalf("step %d: retransmission answered %x, entry holds %x", step, reply, h.reply)
				}
				continue
			}
			if want := registered(p); (ran == 1) != want || ran > 1 {
				t.Fatalf("step %d: call %+v ran %d handlers", step, p, ran)
			}
			if silent := p == (procKey{testProg, testVers, procOneWay}); silent != (reply == nil) {
				t.Fatalf("step %d: call %+v answered %x", step, p, reply)
			}
			table[k] = held{p, reply}
		}
	})
}

// splitConn is a stream connection made of two pipes: requests arrive on
// the embedded one, replies leave on out. The peer can end its half of
// the stream and still read every reply the server writes until it
// hangs up, which one net.Pipe, with no half-close, cannot offer.
type splitConn struct {
	net.Conn
	out net.Conn
}

func (c splitConn) Write(p []byte) (int, error) { return c.out.Write(p) }

func (c splitConn) Close() error {
	_ = c.out.Close()
	return c.Conn.Close()
}

// SetWriteDeadline is out's: the writes it bounds are the replies.
func (c splitConn) SetWriteDeadline(t time.Time) error { return c.out.SetWriteDeadline(t) }

// FuzzServeConn feeds arbitrary byte streams to serveConn, the stream
// server loop — read token, lending, hand-off, the hang-up, and the
// batcher that frames and writes the replies — over in-process pipes,
// with a registered echo and a 64 KiB record bound. The loop must never
// panic; every record it writes must parse with ReplyHeader.Marshal; the
// calls it answers must be exactly those ahead of the first record that
// breaks the stream — one that is not a call, or one past the bound — or
// of the stream's end, each once, on a broken stream as on a whole one:
// the stream ends behind their replies, and no call after the break is
// run. Once the stream has ended the loop must return and leave no
// goroutine behind.
//
// The peer sends the first cut bytes, and then the rest in one write.
// On a whole input it waits, in between, for the replies to the calls
// the first part holds whole, as a closed-loop caller does: the rest
// then arrives at a server that has found the connection quick.
func FuzzServeConn(f *testing.F) {
	const maxRecord = 64 << 10
	ints := func(n int) func(x *xdr.XDR) error {
		arr := make([]int32, n)
		return func(x *xdr.XDR) error { return xdr.Array(x, &arr, xdr.NoSizeLimit, (*xdr.XDR).Long) }
	}
	echo := func(xid uint32, n int) []byte { return buildCall(f, xid, testVers, procEcho, ints(n)) }
	f.Add(byte(0), frame(echo(1, 3)))
	f.Add(byte(0), frame(echo(1, 0), echo(2, 40), buildCall(f, 3, testVers, 99, nil), echo(1, 5)))
	f.Add(byte(0), frame(echo(4, 2), buildCall(f, 5, testVers+1, procEcho, nil), []byte{0, 0, 0, 9, 0, 0, 0, 1}, echo(6, 1)))
	var big [][]byte
	for xid := uint32(20); xid < 30; xid++ {
		big = append(big, echo(xid, 1000))
	}
	f.Add(byte(0), frame(big...)) // a burst of replies past the coalesce limit
	split := echo(10, 4)
	f.Add(byte(0), append(append([]byte{0, 0, 0, 8}, split[:8]...), frame(split[8:])...)) // two fragments
	f.Add(byte(0), append(frame(echo(11, 1)), 0x80, 0x01, 0x00, 0x01, 1, 2, 3))           // past the bound
	f.Add(byte(0), append(frame(echo(12, 1)), 0, 0, 0, 0, 0, 0, 0, 0))                    // empty non-final fragments
	f.Add(byte(7), frame(echo(13, 1))[:20])                                               // cut short
	// A lone call, then a burst whose last call is still arriving when
	// the others are answered: their replies wait on the batcher for
	// the read that finds the window empty.
	lone, burst := frame(echo(14, 1)), frame(echo(15, 2), echo(16, 3), echo(17, 4))
	f.Add(byte(len(lone)), append(lone, burst[:len(burst)-5]...))

	// scan returns the XIDs of the calls the server must answer — those
	// ahead of the first record whose call header does not parse or whose
	// mark is past the bound, or of the end of the stream, at or inside a
	// record; the server reads nothing beyond — their number, and whether
	// the stream is whole: nothing breaks it before its end.
	scan := func(stream []byte) (xids map[uint32]int, n int, whole bool) {
		xids = map[uint32]int{}
		in := xdr.NewRecStream(struct {
			io.Reader
			io.Writer
		}{Reader: bytes.NewReader(stream)}, 0)
		in.MaxRecord = maxRecord
		for {
			rec, err := in.ReadRecord(nil)
			if err != nil {
				return xids, n, errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
			}
			var h rpcmsg.CallHeader
			if h.Marshal(xdr.NewDecoder(xdr.NewMemDecode(rec))) != nil {
				return xids, n, false
			}
			xids[h.XID]++
			n++
		}
	}

	f.Fuzz(func(t *testing.T, cut byte, data []byte) {
		first, rest := data[:min(int(cut), len(data))], data[min(int(cut), len(data)):]
		calls, ncalls, whole := scan(data)
		_, nfirst, _ := scan(first)

		defer testutil.NoLeak(t)()
		s := New(WithMaxRecord(maxRecord))
		s.Register(testProg, testVers, procEcho, echoProc)
		reqPeer, reqSrv := net.Pipe()
		repSrv, repPeer := net.Pipe()
		defer repPeer.Close()
		defer reqPeer.Close()
		served, wrote, more := make(chan struct{}), make(chan struct{}), make(chan struct{})
		released := false
		release := func() {
			if !released {
				released = true
				close(more)
			}
		}
		defer release()
		go func() {
			defer close(served)
			s.serveConn(splitConn{Conn: reqSrv, out: repSrv})
		}()
		go func() {
			defer close(wrote)
			for i, part := range [][]byte{first, rest} {
				if i == 1 {
					<-more
				}
				if len(part) == 0 {
					continue
				}
				if _, err := reqPeer.Write(part); err != nil {
					return // the server hung up
				}
			}
		}()
		replies, stop := make(chan []byte), make(chan struct{})
		defer close(stop) // a failed check stops taking replies
		go func() {
			defer close(replies)
			r := xdr.NewRecStream(repPeer, 0)
			for {
				rec, err := r.ReadRecord(nil)
				if err != nil {
					return
				}
				select {
				case replies <- rec:
				case <-stop:
					return
				}
			}
		}()
		n := 0
		check := func(rec []byte) {
			var rh rpcmsg.ReplyHeader
			if err := rh.Marshal(xdr.NewDecoder(xdr.NewMemDecode(rec))); err != nil {
				t.Fatalf("reply %d does not parse: %v (%x)", n, err, rec)
			}
			if calls[rh.XID]--; calls[rh.XID] < 0 {
				t.Fatalf("reply %d: xid %d answers no call ahead of the break left unanswered", n, rh.XID)
			}
			n++
		}
		if !whole {
			release()
		}
		for n < ncalls {
			if n >= nfirst {
				release()
			}
			select {
			case rec, ok := <-replies:
				if !ok {
					t.Fatalf("the server hung up after %d replies to %d calls", n, ncalls)
				}
				check(rec)
			case <-time.After(10 * time.Second):
				t.Fatalf("%d replies to %d calls, and no more coming", n, ncalls)
			}
		}
		// Every call owed a reply has one. The peer ends its half once the
		// server has read all it sent, or hung up before, so a break has
		// been read by then and any reply to a call behind it is found.
		release()
		in, sent := replies, wrote
		for sent != nil {
			select {
			case rec, ok := <-in:
				if !ok {
					in = nil
					continue
				}
				check(rec)
			case <-sent:
				sent = nil
			}
		}
		_ = reqPeer.Close()
		if in != nil {
			for rec := range in {
				check(rec)
			}
		}
		<-served
	})
}
