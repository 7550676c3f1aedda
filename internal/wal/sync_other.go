//go:build !linux

package wal

import "os"

// datasync returns f's sync: a full fsync where fdatasync is not wired
// up.
func datasync(f *os.File) func() error { return f.Sync }
