package wal

import (
	"os"
	"syscall"
)

// datasync returns f's sync: fdatasync, which flushes the data and the
// metadata needed to read it back — size, blocks — but not timestamps.
// Over the zero tail a flush changes neither size nor blocks, so the
// sync writes the data without waiting for a file-system journal
// commit. It reuses f's descriptor without allocating; its one caller,
// the log writer shared by Log and ReplicaLog, syncs only while its
// owner serializes it, and never after Close.
func datasync(f *os.File) func() error {
	fd := int(f.Fd())
	return func() error {
		for {
			switch err := syscall.Fdatasync(fd); err {
			case nil:
				return nil
			case syscall.EINTR:
			default:
				return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
			}
		}
	}
}
