package testutil

import "runtime"

// AllocsPerRun is testing.AllocsPerRun with the bytes beside the count: the
// average number of heap objects, and of heap bytes, one call of f
// allocates, over runs calls after one to warm up, on one P. Like the
// original it rounds the averages down, so growth that amortises to less
// than one object a call reads as none.
func AllocsPerRun(runs int, f func()) (allocs, bytes int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return int(m1.Mallocs-m0.Mallocs) / runs, int(m1.TotalAlloc-m0.TotalAlloc) / runs
}
