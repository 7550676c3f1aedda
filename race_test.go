//go:build race

package oms

// Under the race detector sync.Pool drops entries at random, so the
// engine's pooled per-node scratch is rebuilt about once per Push (1.05
// allocs/node measured): an allocation floor would measure the detector.
func init() { raceBuild = true }
