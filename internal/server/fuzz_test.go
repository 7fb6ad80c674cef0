package server

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"specrpc/internal/netsim"
	"specrpc/internal/platform/batchio"
	"specrpc/internal/rpcmsg"
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
