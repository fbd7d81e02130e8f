package ring

// The AVX-512 IFMA body of the seed expander (seed_amd64.s). It serves
// q < 2^mod.VectorModulusBits and rows of a multiple of 64 words;
// vecRow decides.

// uniformRow52 draws row with eight lanes of the stream, lane k from
// the state st[·][k] into row[k·len/8:(k+1)·len/8], each word reduced
// modulo q with Reduce52's constants c, c52, mu. It leaves every lane's
// end state in st.
//
//go:noescape
func uniformRow52(row []uint64, st *[4][lanes]uint64, q, c, c52, mu uint64)
