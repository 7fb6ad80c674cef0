package main

import (
	"math/rand"
	"sync/atomic"

	"specrpc/internal/client"
	ct "specrpc/internal/compiledtest"
	"specrpc/internal/xdr"
)

// A workload is one closed-loop traffic mix over the host's loopback
// interface: every caller waits for its reply before sending the next
// operation, and a caller owns its connection, so at most one operation
// is in flight per connection. An op is what the caller waits for; a call
// is one RPC the server executes (8 per op on tcp_batch8, 1 elsewhere).
type workload struct {
	name    string
	why     string // one line, recorded in BENCHMARK.json
	udp     bool
	callers int // also the number of connections; never above 2
	style   traceStyle
	gen     func(r *rand.Rand, caller int32) []op
}

var workloads = []*workload{
	{
		name: "tcp_echo20",
		why: "Scale of 20 int32 over TCP, 1 caller: per-call fixed cost (engine, dispatch, header templates, " +
			"framing, syscalls) is nearly all of it and the codec under 3 %, so a codec change must not move it.",
		callers: 1, style: styleStream,
		gen: func(r *rand.Rand, c int32) []op { return genScales(r, c, 256, 20) },
	},
	{
		name: "tcp_echo2000",
		why: "Scale of 2000 int32 (8 KB each way) over TCP, 1 caller: the wire codec, decode allocation and " +
			"copies are the largest user-space share, so codec, zero-copy and buffer-reuse work shows here only.",
		callers: 1, style: styleStream,
		gen: func(r *rand.Rand, c int32) []op { return genScales(r, c, 64, 2000) },
	},
	{
		name: "udp_mix",
		why: "Seeded mix over UDP, 2 callers: 40 % Scale n in {20,100,250}, 25 % Mix (0.8 KB struct), " +
			"20 % Sum of 500, 15 % Lookup on the closure path; only here run the datagram engine, batchio and the slow path.",
		udp: true, callers: 2, style: styleDatagram,
		gen: genMix,
	},
	{
		name: "tcp_batch8",
		why: "One op is 7 CallBatched(SUM, 100 ints) and a terminal Sum over TCP: one coalesced write and a burst " +
			"of 8 records, so a request/reply win that costs one-way traffic, or the reverse, shows.",
		callers: 1, style: styleBurst,
		gen: genBatches,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// genOps makes every caller's operation sequence from the seed alone. The
// sequences are replayed cyclically; the product sees only the arguments.
func genOps(w *workload, seed int64) [][]op {
	r := rand.New(rand.NewSource(seed))
	all := make([][]op, w.callers)
	for c := range all {
		all[c] = w.gen(r, int32(c))
	}
	return all
}

type opKind uint8

const (
	opScale opKind = iota
	opSum
	opMix
	opLookup
	opBatch8
)

// batchSize is the number of calls in one tcp_batch8 op. 8 requests of
// 100 ints are 3.6 KB, far below the 32 KB at which the record layer
// leaves its copy-and-single-Write path.
const batchSize = 8

// op is one generated operation with what its reply must be. The first
// argument word (nums[0], mix.A, pt.X) is the caller's index, which the
// traced handlers use to find the operation they belong to.
type op struct {
	kind    opKind
	nums    ct.Numbers     // Scale, Sum and Batch8 argument
	probe   int            // Scale: seeded index checked in the reply
	sum     int32          // Sum and Batch8: expected reply
	mix     ct.Sample      // Mix argument
	pt      ct.Point       // Lookup argument; pt.Y is the key
	batched client.Marshal // Batch8: marshals nums for CallBatched
}

func (o *op) calls() uint64 {
	if o.kind == opBatch8 {
		return batchSize
	}
	return 1
}

func genNums(r *rand.Rand, caller int32, n int) ct.Numbers {
	nums := make(ct.Numbers, n)
	nums[0] = caller
	for i := 1; i < n; i++ {
		nums[i] = int32(r.Uint32())
	}
	return nums
}

func scaleOp(r *rand.Rand, caller int32, n int) op {
	return op{kind: opScale, nums: genNums(r, caller, n), probe: r.Intn(n)}
}

func sumOp(r *rand.Rand, caller int32, n int) op {
	o := op{kind: opSum, nums: genNums(r, caller, n)}
	o.sum = sumOf(o.nums)
	return o
}

func genScales(r *rand.Rand, caller int32, count, n int) []op {
	ops := make([]op, count)
	for i := range ops {
		ops[i] = scaleOp(r, caller, n)
	}
	return ops
}

func genBatches(r *rand.Rand, caller int32) []op {
	ops := make([]op, 256)
	for i := range ops {
		o := &ops[i]
		*o = sumOp(r, caller, 100)
		o.kind = opBatch8
		o.batched = func(x *xdr.XDR) error { return o.nums.Marshal(x) }
	}
	return ops
}

// genMix deals udp_mix from decks of 60 operations holding the mix in
// exact proportion (24 Scale, 8 of each size; 15 Mix; 12 Sum; 9 Lookup)
// and shuffles each deck, so the order is seeded while the shares, and
// with them the per-call counts, are the same for every seed.
func genMix(r *rand.Rand, caller int32) []op {
	const decks = 16
	ops := make([]op, 0, decks*60)
	for d := 0; d < decks; d++ {
		deck := len(ops)
		for i := 0; i < 24; i++ {
			ops = append(ops, scaleOp(r, caller, []int{20, 100, 250}[i%3]))
		}
		for i := 0; i < 15; i++ {
			ops = append(ops, op{kind: opMix, mix: genSample(r, caller)})
		}
		for i := 0; i < 12; i++ {
			ops = append(ops, sumOp(r, caller, 500))
		}
		for i := 0; i < 9; i++ {
			ops = append(ops, op{kind: opLookup, pt: ct.Point{X: caller, Y: int32(r.Intn(1000))}})
		}
		r.Shuffle(60, func(i, j int) { ops[deck+i], ops[deck+j] = ops[deck+j], ops[deck+i] })
	}
	return ops
}

func genString(r *rand.Rand, lo, hi int) string {
	b := make([]byte, lo+r.Intn(hi-lo+1))
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

func genBytes(r *rand.Rand, lo, hi int) []byte {
	b := make([]byte, lo+r.Intn(hi-lo+1))
	r.Read(b)
	return b
}

// genSample fills every field of the IDL's kitchen-sink struct; the
// variable-length tails are sized so that one sample is about 0.8 KB on
// the wire.
func genSample(r *rand.Rand, caller int32) ct.Sample {
	s := ct.Sample{
		A: caller, B: r.Uint32(), Flag: r.Intn(2) == 1, F: r.Float32(), D: r.Float64(),
		H: r.Int63(), Uh: r.Uint64(), Kind: ct.GREEN,
		At:      ct.Point{X: r.Int31(), Y: r.Int31()},
		Name:    genString(r, 8, 32),
		Data:    genBytes(r, 16, 64),
		Nums:    genNums(r, caller, 60+r.Intn(61)),
		Payload: genBytes(r, 100, 300),
		Pts:     make([]ct.Point, r.Intn(8)),
		Words:   make([]ct.Word, 1+r.Intn(4)),
		Bits:    make([]bool, r.Intn(9)),
	}
	r.Read(s.Tag[:])
	for i := range s.Pts {
		s.Pts[i] = ct.Point{X: r.Int31(), Y: r.Int31()}
	}
	for i := range s.Words {
		s.Words[i] = ct.Word(genString(r, 1, 16))
	}
	for i := range s.Bits {
		s.Bits[i] = r.Intn(2) == 1
	}
	return s
}

// ---------------------------------------------------------------------------
// The service: what the handlers compute and what the callers check.

func scaleOf(v int32) int32 { return v * 3 }

func sumOf(nums ct.Numbers) int32 {
	var s int32
	for _, v := range nums {
		s += v
	}
	return s
}

var lookupLabels = [...]string{
	"unit square", "triangle", "a rather long label for a shape that nobody would draw by hand", "hexagon", "",
}

// lookupMiss reports whether a key selects the union's error arm.
func lookupMiss(key int32) bool { return key%4 == 3 }

func lookupLabel(key int32) string { return lookupLabels[int(key)%len(lookupLabels)] }

// handler implements the generated ShapeProgV2Handler.
type handler struct {
	sums atomic.Uint64 // SUM executions, compared with the SUMs the callers sent
}

var _ ct.ShapeProgV2Handler = (*handler)(nil)

func (h *handler) Ping() error { return nil }

func (h *handler) Scale(arg *ct.Numbers) (*ct.Numbers, error) {
	for i, v := range *arg {
		(*arg)[i] = scaleOf(v)
	}
	return arg, nil
}

func (h *handler) Sum(arg *ct.Numbers) (*int32, error) {
	h.sums.Add(1)
	s := sumOf(*arg)
	return &s, nil
}

func (h *handler) Mix(arg *ct.Sample) (*ct.Sample, error) {
	arg.B++
	return arg, nil
}

func (h *handler) Lookup(arg *ct.Point) (*ct.LookupResult, error) {
	key := arg.Y
	if lookupMiss(key) {
		return &ct.LookupResult{Status: 1, ErrnoVal: key}, nil
	}
	res := &ct.LookupResult{S: ct.Shape{
		Kind: ct.BLUE, Label: lookupLabel(key), Stamp: uint64(key) * 1e6, Weight: float64(key) / 2, Visible: key%2 == 1,
	}}
	for i := range res.S.Corners {
		res.S.Corners[i] = ct.Point{X: key + int32(i), Y: key - int32(i)}
	}
	if key%2 == 0 {
		res.S.Next = &ct.Point{X: arg.X, Y: key}
	}
	return res, nil
}

// caller is one closed-loop client: the generated stubs over its own
// connection. tcp is set on stream workloads, for CallBatched.
type caller struct {
	stubs ct.ShapeProgV2Client
	tcp   *client.TCP
	udp   *client.UDP
	ops   []op   // replayed cyclically
	next  int    // index into ops
	sums  uint64 // SUM calls sent over the rig's life, batched ones included
}

func (c *caller) nextOp() *op {
	o := &c.ops[c.next]
	if c.next++; c.next == len(c.ops) {
		c.next = 0
	}
	return o
}

// do performs one operation through the generated stubs and reports
// whether it returned the right data. It allocates nothing of its own.
func (c *caller) do(o *op) bool {
	switch o.kind {
	case opScale:
		res, err := c.stubs.Scale(&o.nums)
		if err != nil || len(*res) != len(o.nums) {
			return false
		}
		last := len(o.nums) - 1
		return (*res)[0] == scaleOf(o.nums[0]) && (*res)[last] == scaleOf(o.nums[last]) &&
			(*res)[o.probe] == scaleOf(o.nums[o.probe])
	case opSum:
		c.sums++
		res, err := c.stubs.Sum(&o.nums)
		return err == nil && *res == o.sum
	case opBatch8:
		c.sums += batchSize
		for i := 1; i < batchSize; i++ {
			if c.tcp.CallBatched(ct.ShapeProgV2ProcSum, o.batched) != nil {
				return false
			}
		}
		res, err := c.stubs.Sum(&o.nums)
		return err == nil && *res == o.sum
	case opMix:
		res, err := c.stubs.Mix(&o.mix)
		if err != nil {
			return false
		}
		in := &o.mix
		nl, wl := len(in.Nums)-1, len(in.Words)-1
		return res.A == in.A && res.B == in.B+1 && res.Name == in.Name && res.Tag == in.Tag &&
			len(res.Data) == len(in.Data) && len(res.Payload) == len(in.Payload) &&
			len(res.Pts) == len(in.Pts) && len(res.Bits) == len(in.Bits) &&
			len(res.Nums) == len(in.Nums) && res.Nums[nl] == in.Nums[nl] &&
			len(res.Words) == len(in.Words) && res.Words[wl] == in.Words[wl]
	case opLookup:
		res, err := c.stubs.Lookup(&o.pt)
		if err != nil {
			return false
		}
		key := o.pt.Y
		if lookupMiss(key) {
			return res.Status == 1 && res.ErrnoVal == key
		}
		return res.Status == 0 && res.S.Label == lookupLabel(key) && res.S.Corners[3].X == key+3 &&
			(res.S.Next != nil) == (key%2 == 0)
	}
	return false
}
