package mod

import (
	"os"
	"syscall"
	"testing"
)

// endOfPage returns a slice of n bytes whose last byte is the last of
// a mapped page, followed by a page mapped with no access, so that
// reading one byte past the slice's end faults; free unmaps it.
func endOfPage(t *testing.T, n int) (row []byte, free func()) {
	t.Helper()
	page := os.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	end := size - page
	return mem[end-n : end : end], func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Fatal(err)
		}
	}
}
