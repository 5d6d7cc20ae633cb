//go:build race

package hom

// The race detector makes sync.Pool drop a share of what it is given,
// so allocation pins on pooled calls do not hold under it.
func init() { raceEnabled = true }
