package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"specrpc/internal/rpcmsg"
	"specrpc/internal/xdr"
)

// registeredPlan is a plan with routines hung on it the way a generated
// package's init hangs them. What rpcgen really emits is differentially
// tested in internal/compiledtest; these stand-ins are the reference
// two-pass encoding over a second, unregistered plan, and count their
// calls so the ladder test can tell that they ran.
func registeredPlan() (p *Plan[everything], appends, decodes *int) {
	p = MustPlan[everything](everythingType(), Specialized)
	ref := MustPlan[everything](everythingType(), Specialized)
	appends, decodes = new(int), new(int)
	RegisterCompiled(p, Compiled[everything]{
		Append: func(bs *xdr.BufStream, hdr []byte, xid uint32, v *everything) error {
			*appends++
			w := bs.Extend(len(hdr))
			copy(w, hdr)
			w[0], w[1], w[2], w[3] = byte(xid>>24), byte(xid>>16), byte(xid>>8), byte(xid)
			return ref.Encode(xdr.NewEncoder(bs), v)
		},
		Decode: func(body []byte, v *everything) error {
			*decodes++
			return ref.c.DecodeBody(body, unsafe.Pointer(v))
		},
	})
	return p, appends, decodes
}

// TestCodecLadder is the one statement of which rung a plan lands on and
// of what every rung owes: for each kind of plan a constructor can be
// handed — one with emitted routines registered, a Specialized one
// without, a Generic-mode one — and each of the four codec steps of a
// call, the codec reports the rung the plan reaches, and its bytes,
// values and errors are those of the template copy followed by the
// plan's own Marshal.
func TestCodecLadder(t *testing.T) {
	ctmpl := testCallTemplate(t)
	rtmpl := rpcmsg.MustReplyTemplate(rpcmsg.None())
	const xid, proc = 0x01020304, 7

	registered, appends, decodes := registeredPlan()
	for _, tc := range []struct {
		name string
		plan *Plan[everything]
		want Rung
		says string
	}{
		{"registered", registered, RungCompiled, "compiled"},
		{"unregistered", MustPlan[everything](everythingType(), Specialized), RungFused, "fused"},
		{"generic", MustPlan[everything](everythingType(), Generic), RungGeneric, "generic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.plan
			cc, err := NewCallCodec(ctmpl, proc, p.Codec())
			if err != nil {
				t.Fatal(err)
			}
			enc, dec := NewReplyCodec(rtmpl, p.Codec()), NewReplyCodec(nil, p.Codec())
			if cc.Rung() != tc.want || enc.Rung() != tc.want || dec.Rung() != tc.want {
				t.Fatalf("rungs: call %v, reply encode %v, reply decode %v; want %v on all",
					cc.Rung(), enc.Rung(), dec.Rung(), tc.want)
			}
			if tc.want.String() != tc.says {
				t.Errorf("rung %d calls itself %q, want %q", tc.want, tc.want, tc.says)
			}

			// refEncode is the two-pass reference: header bytes, then the
			// plan's Marshal behind them.
			refEncode := func(hdr []byte, v *everything) ([]byte, error) {
				bs := xdr.NewBufEncode(nil)
				bs.SetBuffer(hdr)
				err := p.Marshal(xdr.NewEncoder(bs), v)
				return bs.Buffer(), err
			}
			good := sampleEverything()
			long := sampleEverything()
			long.Name = string(make([]byte, 65)) // over name's bound of 64
			many := sampleEverything()
			many.Words = make([]string, 11) // over words' bound of 10

			// Call and reply encode.
			for _, step := range []struct {
				name   string
				hdr    []byte
				append func(*xdr.BufStream, uint32, unsafe.Pointer) error
			}{
				{"call", ctmpl.AppendCall(nil, xid, proc), cc.Append},
				{"reply-encode", rtmpl.AppendReply(nil, xid), enc.Append},
			} {
				for vi, v := range []*everything{&good, &long, &many} {
					want, wantErr := refEncode(step.hdr, v)
					if (wantErr != nil) != (vi > 0) {
						t.Fatalf("reference encode of value %d: %v", vi, wantErr)
					}
					before := *appends
					bs := xdr.NewBufEncode(nil)
					err := step.append(bs, xid, unsafe.Pointer(v))
					if !sameError(err, wantErr) {
						t.Errorf("%s, value %d: err = %v, reference %v", step.name, vi, err, wantErr)
					}
					if err == nil && !bytes.Equal(bs.Buffer(), want) {
						t.Errorf("%s, value %d: bytes differ from template + Marshal\n got %x\nwant %x",
							step.name, vi, bs.Buffer(), want)
					}
					if ran := *appends != before; ran != (tc.want == RungCompiled) {
						t.Errorf("%s: emitted routine ran = %v on rung %v", step.name, ran, tc.want)
					}
				}
			}
			bs := xdr.NewBufEncode(nil)
			if err := enc.AppendHeader(bs, xid); err != nil || !bytes.Equal(bs.Buffer(), rtmpl.AppendReply(nil, xid)) {
				t.Errorf("AppendHeader: err %v, bytes %x", err, bs.Buffer())
			}

			// Reply decode and argument decode, over the whole body and
			// over every truncation of it.
			reply, err := refEncode(rtmpl.AppendReply(nil, xid), &good)
			if err != nil {
				t.Fatal(err)
			}
			body := reply[rtmpl.Len():]
			argDecode := p.Codec().BodyDecoder()
			for cut := len(body); cut >= 0; cut -= 7 {
				var want everything
				wantErr := p.Marshal(xdr.NewDecoder(xdr.NewMemDecode(body[:cut])), &want)
				if (wantErr != nil) != (cut < len(body)) {
					t.Fatalf("reference decode at %d of %d: %v", cut, len(body), wantErr)
				}
				before := *decodes

				var got everything
				handled, err := dec.DecodeReply(reply[:rtmpl.Len()+cut], unsafe.Pointer(&got))
				if !handled || !sameError(err, wantErr) {
					t.Errorf("reply-decode at %d: handled %v, err %v; reference %v", cut, handled, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("reply-decode at %d:\n got %+v\nwant %+v", cut, got, want)
				}

				var arg everything
				err = argDecode(body[:cut], unsafe.Pointer(&arg))
				if !sameError(err, wantErr) {
					t.Errorf("args-decode at %d: err %v, reference %v", cut, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(arg, want) {
					t.Errorf("args-decode at %d:\n got %+v\nwant %+v", cut, arg, want)
				}
				if ran := *decodes - before; ran != 2 && tc.want == RungCompiled || ran != 0 && tc.want != RungCompiled {
					t.Errorf("decode at %d: emitted routine ran %d times on rung %v", cut, ran, tc.want)
				}
			}
			// A reply that is not an accepted success is nobody's to decode.
			var got everything
			if handled, err := dec.DecodeReply(reply[:8], unsafe.Pointer(&got)); handled || err != nil {
				t.Errorf("short reply: handled %v, err %v", handled, err)
			}
		})
	}

	// The sides no plan describes, and the one input a constructor refuses.
	void, err := NewCallCodec(ctmpl, proc, nil)
	if err != nil || void.Rung() != RungFused || NewReplyCodec(rtmpl, nil).Rung() != RungFused {
		t.Errorf("void sides: err %v, call rung %v", err, void.Rung())
	}
	if (*Codec)(nil).BodyDecoder() != nil {
		t.Error("a void side has a body decoder")
	}
	if _, err := NewCallCodec(nil, proc, registered.Codec()); err == nil {
		t.Error("NewCallCodec accepted a nil template")
	}
	// Half a pair registers nothing: both directions stay on one rung.
	half := MustPlan[everything](everythingType(), Specialized)
	RegisterCompiled(half, Compiled[everything]{Decode: func([]byte, *everything) error { return nil }})
	if r := NewReplyCodec(rtmpl, half.Codec()).Rung(); r != RungFused {
		t.Errorf("half a registered pair put the codec on %v", r)
	}
}

// sameError reports whether a codec's error is the reference's: both
// nil, or the codec's wrapping (or being) the reference's sentinel.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return errors.Is(got, want)
}
