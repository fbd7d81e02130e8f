//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package ring

import "unsafe"

// rowBytes is row's memory viewed as its wire bytes: on a little-endian
// host a u64 is laid out exactly as the format writes it.
func rowBytes(row []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 8*len(row))
}
