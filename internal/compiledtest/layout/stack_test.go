package layout

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestListStackFlat: a list that fills a default-sized record (16 MiB,
// 2^21-1 links of intlist, 8 wire bytes a link) decodes on every rung in
// no more goroutine stack than a list of 2^12 links: each rung runs a
// list as one loop over its links. A decoder that recursed once a link
// would need about 16 stack bytes a wire byte, 256 MiB here.
func TestListStackFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes 16 MiB three times")
	}
	body := func(links int) []byte {
		b := make([]byte, 4, 8+8*links)
		for k := 1; k <= links; k++ {
			b = binary.BigEndian.AppendUint32(b, 1)
			b = binary.BigEndian.AppendUint32(b, uint32(k))
		}
		return binary.BigEndian.AppendUint32(b, 0)
	}
	small, large := body(1<<12), body(1<<21-1)
	if len(large) != 1<<24 {
		t.Fatalf("body of %d bytes", len(large))
	}
	for _, en := range intlistEngines {
		stack := func(b []byte) uint64 {
			// A fresh goroutine's stack grows for the decode and has not
			// shrunk yet when the memory statistics are read.
			done := make(chan uint64)
			go func() {
				var v Intlist
				if err := en.decode(b, &v); err != nil {
					t.Errorf("%s: %v", en.name, err)
				}
				n := 0
				for p := v.Next; p != nil; p = p.Next {
					n++
				}
				if want := (len(b) - 8) / 8; n != want {
					t.Errorf("%s: decoded %d links, want %d", en.name, n, want)
				}
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				done <- ms.StackInuse
			}()
			return <-done
		}
		base, full := stack(small), stack(large)
		t.Logf("%s: stack in use %d KiB after 2^12 links, %d KiB after 2^21-1", en.name, base>>10, full>>10)
		if full > base+256<<10 {
			t.Errorf("%s: stack grew from %d to %d bytes with the list's length", en.name, base, full)
		}
	}
}
