//go:build !linux

package mod

import "testing"

// endOfPage returns a slice of n bytes with no capacity beyond them:
// off Linux no guard page follows it, so only the Go body's bounds
// checks catch a read past its end.
func endOfPage(t *testing.T, n int) (row []byte, free func()) {
	return make([]byte, n), func() {}
}
