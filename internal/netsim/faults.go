package netsim

// Seeded probabilistic link faults: the chaos-testing layer over the
// deterministic per-sequence hooks (FaultFn). Faults attach to directed
// links — (from, to) pairs, with "" as a wildcard on either side — and
// draw from one seeded source under the network lock, so a given seed
// replays the identical fault schedule run after run. The chaos
// integration suite and `sunbench -chaos` drive their loss/duplication/
// corruption/reorder schedules through this layer.

import (
	"math/rand"
	"time"
)

// LinkFaults is the fault profile of one directed link. Rates are
// probabilities in [0, 1], drawn independently per packet.
type LinkFaults struct {
	// Loss drops the packet.
	Loss float64
	// Dup delivers the packet twice.
	Dup float64
	// Corrupt XOR-flips one random byte of the payload — undetectable by
	// ONC RPC itself (no checksum below the transport), so corrupted
	// datagrams surface as ill-formed or misrouted replies.
	Corrupt float64
	// Reorder holds the packet long enough for packets sent after it to
	// overtake it (implemented as an extra delivery delay, so no packet
	// is ever stranded).
	Reorder float64
	// JitterMax adds a uniformly random delivery delay in [0, JitterMax]
	// to every packet.
	JitterMax time.Duration
}

// zero reports a profile with nothing to inject.
func (f *LinkFaults) zero() bool {
	return f.Loss == 0 && f.Dup == 0 && f.Corrupt == 0 && f.Reorder == 0 && f.JitterMax == 0
}

// FaultStats counts injected faults network-wide.
type FaultStats struct {
	Dropped     uint64
	Duplicated  uint64
	Corrupted   uint64
	Reordered   uint64
	Partitioned uint64
}

// linkKey names a directed link; "" is a wildcard endpoint.
type linkKey struct {
	from, to Addr
}

// WithSeed seeds the probabilistic fault source. Without it, link
// faults draw from a fixed default seed — deterministic either way.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// SetLink installs (or replaces) the fault profile of the directed link
// from→to. Either side may be the empty Addr as a wildcard; a packet
// uses the most specific profile — (from, to), (from, *), (*, to),
// (*, *) — and only that one.
func (n *Network) SetLink(from, to Addr, f LinkFaults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.links == nil {
		n.links = make(map[linkKey]*LinkFaults)
	}
	ff := f
	n.links[linkKey{from, to}] = &ff
}

// Partition cuts the directed link from→to: every packet sent across it
// is dropped (and counted) until Heal. Wildcards work as in SetLink, so
// Partition("", "server") isolates the server's receive side entirely.
func (n *Network) Partition(from, to Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.parts == nil {
		n.parts = make(map[linkKey]bool)
	}
	n.parts[linkKey{from, to}] = true
}

// Heal restores the directed link cut by Partition(from, to).
func (n *Network) Heal(from, to Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parts, linkKey{from, to})
}

// FaultStats returns a snapshot of the injected-fault counters.
func (n *Network) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fstats
}

// partitionedLocked reports whether from→to is currently cut.
func (n *Network) partitionedLocked(from, to Addr) bool {
	if len(n.parts) == 0 {
		return false
	}
	return n.parts[linkKey{from, to}] || n.parts[linkKey{from, ""}] ||
		n.parts[linkKey{"", to}] || n.parts[linkKey{"", ""}]
}

// linkLocked resolves the most specific fault profile for from→to.
func (n *Network) linkLocked(from, to Addr) *LinkFaults {
	if len(n.links) == 0 {
		return nil
	}
	for _, k := range [4]linkKey{{from, to}, {from, ""}, {"", to}, {"", ""}} {
		if f := n.links[k]; f != nil {
			return f
		}
	}
	return nil
}

// rngLocked returns the seeded fault source, creating the default-seed
// one on first use.
func (n *Network) rngLocked() *rand.Rand {
	if n.rng == nil {
		n.rng = rand.New(rand.NewSource(1))
	}
	return n.rng
}

// linkVerdict is the outcome of one packet's draw against its link
// profile, applied by WriteTo after the deterministic FaultFn hook.
type linkVerdict struct {
	drop    bool
	dup     bool
	corrupt int // byte index to flip; -1 for none
	delay   time.Duration
}

// applyLinkLocked draws one packet's fate. Must run under n.mu — the
// single rand source is what keeps seeded runs replayable.
func (n *Network) applyLinkLocked(from, to Addr, size int) linkVerdict {
	v := linkVerdict{corrupt: -1}
	if n.partitionedLocked(from, to) {
		n.fstats.Partitioned++
		v.drop = true
		return v
	}
	f := n.linkLocked(from, to)
	if f == nil || f.zero() {
		return v
	}
	rng := n.rngLocked()
	if f.Loss > 0 && rng.Float64() < f.Loss {
		n.fstats.Dropped++
		v.drop = true
		return v
	}
	if f.Dup > 0 && rng.Float64() < f.Dup {
		n.fstats.Duplicated++
		v.dup = true
	}
	if f.Corrupt > 0 && size > 0 && rng.Float64() < f.Corrupt {
		n.fstats.Corrupted++
		v.corrupt = rng.Intn(size)
	}
	if f.JitterMax > 0 {
		v.delay = time.Duration(rng.Int63n(int64(f.JitterMax) + 1))
	}
	if f.Reorder > 0 && rng.Float64() < f.Reorder {
		// Reordering is an extra hold: packets sent afterwards overtake
		// this one naturally, and nothing is ever left stranded in a
		// held-packet queue.
		n.fstats.Reordered++
		bump := 2 * f.JitterMax
		if bump < time.Millisecond {
			bump = time.Millisecond
		}
		v.delay += bump
	}
	return v
}
