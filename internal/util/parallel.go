package util

import (
	"runtime"
	"sync"
)

// Threads clamps a requested thread count to a sane value: requested <= 0
// means "use all logical CPUs".
func Threads(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ParallelFor splits [0, n) into one contiguous chunk per worker and runs
// body(worker, lo, hi) concurrently. Contiguous chunks (rather than
// striding) keep each worker's reads sequential, which matters for the
// vertex-centric streaming loop of the paper's §3.4. body must be safe to
// run concurrently with itself. With threads == 1 the body runs inline on
// the caller's goroutine (deterministic, no scheduling noise in benches).
func ParallelFor(n, threads int, body func(worker, lo, hi int)) {
	threads = Threads(threads)
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return
	}
	if threads <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		lo := w * n / threads
		hi := (w + 1) * n / threads
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
