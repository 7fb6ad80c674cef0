package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"specrpc/internal/xdr"
)

// cNode is a list node, and cHolder holds one inline, one behind
// optional data and one through a named pointer type, as rpcgen declares
// a list spelt through a typedef (typedef struct cNode *cNodes).
type cNode struct {
	V    int32
	S    string
	Next *cNode
}

type cNodes *cNode

type cHolder struct {
	N    int32
	Head cNode
	Opt  cNodes
	Tail int32
}

func cTypes() (node, holder *Type) {
	node = ListT("node", "next", F("v", Int32T()), F("s", StringT(8)))
	holder = StructT("holder", F("n", Int32T()), F("head", node), F("opt", OptionalT(node)), F("tail", Int32T()))
	return node, holder
}

// cList links the values into a list of fresh nodes.
func cList(vs ...int32) *cNode {
	var head *cNode
	for i := len(vs) - 1; i >= 0; i-- {
		head = &cNode{V: vs[i], S: strings.Repeat("x", int(vs[i])%9), Next: head}
	}
	return head
}

// cEngines compiles t against T on the walker and the fused plan.
func cEngines[T any](t *testing.T, wt *Type) []*Plan[T] {
	t.Helper()
	var out []*Plan[T]
	for _, m := range []Mode{Generic, Specialized} {
		p, err := NewPlan[T](wt, m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

func cEncode[T any](p *Plan[T], v *T) ([]byte, error) {
	bs := xdr.NewBufEncode(nil)
	err := p.Encode(xdr.NewEncoder(bs), v)
	return bs.Buffer(), err
}

func cDecode[T any](p *Plan[T], body []byte, v *T) error {
	return p.Codec().DecodeBody(body, unsafe.Pointer(v))
}

// TestChainSteps: a list node lowers to its fields' steps and one chain
// step that holds them again at its link's path, and optional data of a
// node to that chain step alone; the chain costs its ending flag at the
// least, a link its flag and body.
func TestChainSteps(t *testing.T) {
	node, holder := cTypes()
	steps, err := Lower(holder)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for _, s := range steps {
		ops = append(ops, s.Op)
	}
	want := []Op{OpUnits, OpUnits, OpString, OpChain, OpChain, OpUnits}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("ops %v, want %v", ops, want)
	}
	for k, path := range map[int][]int{3: {1, 2}, 4: {2}} {
		c := steps[k]
		if !reflect.DeepEqual(c.Path, path) || c.ElemMin != 12 || len(c.Sub) != 2 ||
			!reflect.DeepEqual(c.Sub[1].Path, []int{1}) {
			t.Errorf("chain step %d: %+v", k, c)
		}
	}
	if _, least := Sizes(steps); least != 4+4+4+4+4+4 {
		t.Errorf("least %d", least)
	}
	if err := node.Validate(); err != nil {
		t.Error(err)
	}
}

// TestChainBytes: both engines write a list as xdr_pointer's recursion
// does — a 1 flag and a node per link, a 0 flag at the end — read it
// back, and decode over a list node by node: the nodes it held are
// reused and it is cut where the message's list ends.
func TestChainBytes(t *testing.T) {
	_, holder := cTypes()
	var ref func(x *xdr.XDR, n *cNode) error
	ref = func(x *xdr.XDR, n *cNode) error {
		if err := x.Long(&n.V); err != nil {
			return err
		}
		if err := x.String(&n.S, 8); err != nil {
			return err
		}
		return xdr.Optional(x, &n.Next, ref)
	}
	v := cHolder{N: 7, Head: *cList(1, 2, 3), Opt: cList(4, 5), Tail: -1}
	bs := xdr.NewBufEncode(nil)
	x := xdr.NewEncoder(bs)
	opt := (*cNode)(v.Opt)
	if x.Long(&v.N) != nil || ref(x, &v.Head) != nil || xdr.Optional(x, &opt, ref) != nil || x.Long(&v.Tail) != nil {
		t.Fatal("reference encode failed")
	}
	want := bs.Buffer()
	for _, p := range cEngines[cHolder](t, holder) {
		got, err := cEncode(p, &v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: %x, %v; want %x", p.Mode(), got, err, want)
		}
		var back cHolder
		if err := cDecode(p, want, &back); err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("%v: decoded %+v, %v", p.Mode(), back, err)
		}
		// Over a longer list: its first nodes are decoded over, the rest
		// cut off.
		old := cHolder{Head: *cList(9, 9, 9, 9), Opt: cList(8, 8, 8)}
		second, optFirst := old.Head.Next, old.Opt
		if err := cDecode(p, want, &old); err != nil || !reflect.DeepEqual(old, v) {
			t.Fatalf("%v: decoded over %+v, %v", p.Mode(), old, err)
		}
		if old.Head.Next != second || old.Opt != optFirst {
			t.Errorf("%v: nodes not reused", p.Mode())
		}
	}
}

// TestChainCycle: a list that leads back into itself fails to encode
// with xdr.ErrCycle on both engines, wherever the loop closes, having
// written a bounded prefix; a long list that does not loop encodes.
func TestChainCycle(t *testing.T) {
	node, _ := cTypes()
	for _, c := range []struct{ tail, loop int }{{0, 1}, {0, 2}, {0, 7}, {3, 1}, {5, 4}, {1, 100}} {
		nodes := make([]cNode, c.tail+c.loop)
		for i := range nodes {
			nodes[i].V = int32(i)
			if i+1 < len(nodes) {
				nodes[i].Next = &nodes[i+1]
			}
		}
		nodes[len(nodes)-1].Next = &nodes[c.tail]
		v := cNode{Next: &nodes[0]}
		for _, p := range cEngines[cNode](t, node) {
			got, err := cEncode(p, &v)
			if !errors.Is(err, xdr.ErrCycle) {
				t.Errorf("tail %d loop %d, %v: err %v", c.tail, c.loop, p.Mode(), err)
			}
			if limit := 4 * 12 * (c.tail + c.loop + 2); len(got) > limit {
				t.Errorf("tail %d loop %d, %v: wrote %d bytes before failing", c.tail, c.loop, p.Mode(), len(got))
			}
		}
	}
	long := cNode{Next: cList(make([]int32, 1000)...)}
	for _, p := range cEngines[cNode](t, node) {
		if _, err := cEncode(p, &long); err != nil {
			t.Errorf("%v: %v", p.Mode(), err)
		}
	}
}

// TestChainTruncated: a set flag that the rest of a link and the flag
// after it can no longer follow fails before a node is taken, and a list
// whose end is missing fails too.
func TestChainTruncated(t *testing.T) {
	node, _ := cTypes()
	// v=1, s="", then one link with v=2, s="", then no ending flag.
	body := []byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0}
	for _, p := range cEngines[cNode](t, node) {
		for n := 0; n < len(body); n++ {
			var v cNode
			if err := cDecode(p, body[:n], &v); !errors.Is(err, xdr.ErrOverflow) {
				t.Errorf("%v: %d bytes: err %v", p.Mode(), n, err)
			}
			if v.Next != nil {
				t.Errorf("%v: %d bytes: took a node its link cannot fill", p.Mode(), n)
			}
		}
		var v cNode
		if err := cDecode(p, body, &v); !errors.Is(err, xdr.ErrOverflow) {
			t.Errorf("%v: no ending flag: err %v", p.Mode(), err)
		}
	}
}

// TestChainBind: a list binds only to a struct whose last field points
// at the struct itself.
func TestChainBind(t *testing.T) {
	node, _ := cTypes()
	type other struct {
		V    int32
		S    string
		Next *cHolder
	}
	if _, err := NewPlan[other](node, Specialized); err == nil || !strings.Contains(err.Error(), "link") {
		t.Errorf("err %v, want the link refused", err)
	}
}
