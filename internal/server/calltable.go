// The datagram server's call table: svc_udp's duplicate-request cache
// (svcudp_enablecache) and a concurrent worker pool's in-flight set, in
// one map behind one lock. Every datagram call is keyed on (peer, xid)
// and is either executing — so a retransmission that arrives meanwhile is
// dropped rather than run a second time — or done, holding its reply so a
// retransmission is answered from memory. A datagram costs two trips
// through the lock: begin, which claims the call or answers it, and
// finish, which stores its reply.

package server

import "sync"

// callState is begin's verdict on one datagram call.
type callState uint8

const (
	// callClaimed: the caller runs the call and must finish it.
	callClaimed callState = iota
	// callBusy: the same (peer, xid) is executing on another worker; this
	// copy is dropped and a later retransmission answered.
	callBusy
	// callCached: the call was answered before; its reply was copied out.
	callCached
)

// callEntry is one (peer, xid) in the table.
type callEntry struct {
	proc   procKey // the call the entry was made for
	reply  []byte  // a done entry's reply; empty for a call that sent none
	done   bool    // finished; executing otherwise
	inRing bool    // holds a slot of the table's ring
}

// callTable is the at-most-once state of ServeUDP. Done entries are kept
// in a FIFO ring whose length is the capacity (WithCacheSize), shared by
// every peer: a lone peer's duplicate window is the whole capacity. A
// capacity of 0 forgets a reply the moment its call finishes and still
// refuses duplicates while the call executes.
//
// A done entry answers a retransmission only when the call matches the
// one it was made for — prog, vers and proc as well as (peer, xid), the
// comparison svc_udp's cache_get made. Another call reusing the xid is a
// miss that takes the entry over, keeping its ring slot.
//
// The ring is a fixed array (head index + live count), and an evicted
// entry donates its reply buffer to the entry replacing it, so
// steady-state eviction allocates nothing. Because of that recycling
// every stored buffer is the table's and valid only under its lock: begin
// copies a reply out rather than returning the stored slice, whose bytes
// a concurrent finish may overwrite the moment the lock is released.
type callTable struct {
	mu   sync.Mutex // guards m, ring, head, n
	m    map[cacheKey]callEntry
	ring []cacheKey // circular insertion order; len(ring) == capacity
	head int        // index of the oldest slot
	n    int        // slots in use
}

func newCallTable(capacity int) *callTable {
	return &callTable{m: make(map[cacheKey]callEntry, capacity), ring: make([]cacheKey, capacity)}
}

// begin looks up (peer, xid) for the call p. A done entry for the same
// call is a hit: its reply is appended onto dst. An executing one makes
// this copy busy. Anything else is claimed for the caller, who must pass
// it to finish.
func (t *callTable) begin(k cacheKey, p procKey, dst []byte) ([]byte, callState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[k]
	switch {
	case ok && !e.done:
		return dst, callBusy
	case ok && e.proc == p:
		return append(dst, e.reply...), callCached
	}
	e.proc, e.done = p, false
	t.m[k] = e
	return dst, callClaimed
}

// finish ends the claim begin granted on k and keeps reply (nil for a
// call that sent none) as the answer to its retransmissions, evicting the
// oldest done entry when the ring is full.
func (t *callTable) finish(k cacheKey, reply []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		delete(t.m, k)
		return
	}
	e := t.m[k]
	if !e.inRing {
		if t.n == len(t.ring) {
			if b := t.evictLocked(); e.reply == nil {
				e.reply = b
			}
		}
		t.ring[(t.head+t.n)%len(t.ring)] = k
		t.n++
		e.inRing = true
	}
	e.reply = append(e.reply[:0], reply...)
	e.done = true
	t.m[k] = e
}

// evictLocked frees the oldest ring slot and returns the emptied reply
// buffer of the entry that held it. An entry taken over by another call
// and still executing loses only its slot: it takes a new one when it
// finishes.
func (t *callTable) evictLocked() []byte {
	k := t.ring[t.head]
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	e := t.m[k]
	if !e.done {
		e.inRing = false
		t.m[k] = e
		return nil
	}
	delete(t.m, k)
	return e.reply[:0]
}
