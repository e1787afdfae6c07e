// Package bitset is the repository's one dense-set representation: a
// row of uint64 words in which bit i stands for member i. Callers own
// the rows and choose the numbering; the functions below only read and
// write bits. They are free functions over []uint64 so that rows can
// be sub-slices of one flat table, and each is small enough for the
// compiler to inline.
package bitset

import "math/bits"

// Words returns how many words a row of n bits needs.
func Words(n int) int { return (n + 63) >> 6 }

// Set adds i to row.
func Set(row []uint64, i int) { row[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from row.
func Clear(row []uint64, i int) { row[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is in row. i must lie inside the row.
func Has(row []uint64, i int) bool { return row[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of members of row.
func Count(row []uint64) int {
	n := 0
	for _, w := range row {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest member of row that is at least i, or -1
// when there is none; i must not be negative. Walking a row in
// ascending order is
//
//	for i := bitset.Next(row, 0); i >= 0; i = bitset.Next(row, i+1)
func Next(row []uint64, i int) int {
	wi := i >> 6
	if wi >= len(row) {
		return -1
	}
	if w := row[wi] >> (uint(i) & 63); w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(row); wi++ {
		if w := row[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}
