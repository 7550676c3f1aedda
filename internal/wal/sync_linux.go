package wal

import (
	"os"
	"syscall"
)

// datasync returns f's sync: fdatasync, which flushes the data and the
// metadata needed to read it back — size, blocks — but not timestamps.
// Over the zero tail a flush changes neither size nor blocks, so the
// sync writes the data without waiting for a file-system journal
// commit. It reuses f's descriptor without allocating; the log calls it
// only under its mutex, before Close.
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
