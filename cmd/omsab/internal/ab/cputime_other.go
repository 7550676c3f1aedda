//go:build !unix

package ab

import "time"

var start = time.Now()

// cpuTime falls back to the wall clock where getrusage is missing.
func cpuTime() time.Duration { return time.Since(start) }
