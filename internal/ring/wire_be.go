//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package ring

// The polynomial codec views a residue row's memory as its little-endian
// wire bytes (wire_le.go). On a big-endian host that would write and read
// byte-swapped residues, so the build stops here instead.
var _ = ring_wire_codec_needs_a_little_endian_GOARCH
