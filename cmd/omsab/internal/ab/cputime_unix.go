//go:build unix

package ab

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used, user and system. A pass
// runs on one goroutine, so over a pass it is the pass's own time, less
// what the host took from it: a timing that other tenants of a shared
// host disturb far less than the wall clock.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF and a valid pointer: it cannot fail
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}
