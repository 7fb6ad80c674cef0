package testutil

import "runtime"

// AllocBytes reports how many bytes f allocates: what a test of the
// allocation rule (a decoder never allocates more than the bytes that
// can still arrive could fill) measures, where testing.AllocsPerRun
// would count objects and miss their size. The count is the process's,
// so f runs three times and the smallest reading is the one reported:
// another goroutine's allocation — a finishing test's, the fuzz
// worker's — lands in one run, a decoder that over-allocates does so in
// all of them.
func AllocBytes(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
