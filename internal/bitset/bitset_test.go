package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestSingleBits(t *testing.T) {
	const n = 130 // three words; the last holds bits 128 and 129
	last := n - 1
	for _, i := range []int{0, 63, 64, last} {
		row := make([]uint64, Words(n))
		if Has(row, i) || Count(row) != 0 {
			t.Fatalf("bit %d: fresh row not empty", i)
		}
		Set(row, i)
		if !Has(row, i) || Count(row) != 1 {
			t.Errorf("bit %d: after Set, Has=%v Count=%d", i, Has(row, i), Count(row))
		}
		for _, j := range []int{0, 63, 64, last} {
			if j != i && Has(row, j) {
				t.Errorf("bit %d: Set also set bit %d", i, j)
			}
		}
		if got := Next(row, 0); got != i {
			t.Errorf("bit %d: Next(0) = %d", i, got)
		}
		if got := Next(row, i); got != i {
			t.Errorf("bit %d: Next(%d) = %d", i, i, got)
		}
		if got := Next(row, i+1); got != -1 {
			t.Errorf("bit %d: Next(%d) = %d, want -1", i, i+1, got)
		}
		Set(row, i) // idempotent
		if Count(row) != 1 {
			t.Errorf("bit %d: second Set changed Count to %d", i, Count(row))
		}
		Clear(row, i)
		if Has(row, i) || Count(row) != 0 {
			t.Errorf("bit %d: after Clear, Has=%v Count=%d", i, Has(row, i), Count(row))
		}
		Clear(row, i) // clearing an absent bit is a no-op
		if Count(row) != 0 {
			t.Errorf("bit %d: second Clear changed Count to %d", i, Count(row))
		}
	}
}

func TestWords(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}} {
		if got := Words(c.n); got != c.want {
			t.Errorf("Words(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNext(t *testing.T) {
	row := make([]uint64, 3)
	for _, i := range []int{0, 63, 64, 191} {
		Set(row, i)
	}
	cases := []struct {
		row      []uint64
		from     int
		want     int
		describe string
	}{
		{nil, 0, -1, "nil row"},
		{make([]uint64, 3), 0, -1, "empty row"},
		{row, 0, 0, "bit 0"},
		{row, 1, 63, "inside the first word"},
		{row, 63, 63, "bit 63"},
		{row, 64, 64, "first bit of a word"},
		{row, 65, 191, "across an empty word"},
		{row, 191, 191, "last bit of the row"},
		{row, 192, -1, "just past the end"},
		{row, 1000, -1, "far past the end"},
	}
	for _, c := range cases {
		if got := Next(c.row, c.from); got != c.want {
			t.Errorf("%s: Next(%d) = %d, want %d", c.describe, c.from, got, c.want)
		}
	}
	var got []int
	for i := Next(row, 0); i >= 0; i = Next(row, i+1) {
		got = append(got, i)
	}
	if want := []int{0, 63, 64, 191}; len(got) != len(want) || got[0] != 0 || got[1] != 63 || got[2] != 64 || got[3] != 191 {
		t.Errorf("walk = %v, want %v", got, want)
	}
}

// benchRow is an adjacency-like row: 1,024 bits with about one in
// eight set.
func benchRow() []uint64 {
	rng := rand.New(rand.NewSource(1))
	row := make([]uint64, Words(1024))
	for i := 0; i < 1024; i++ {
		if rng.Intn(8) == 0 {
			Set(row, i)
		}
	}
	return row
}

var sink int

// BenchmarkNext compares a row walk through Next with the hand-written
// word loop it replaces.
func BenchmarkNext(b *testing.B) {
	row := benchRow()
	b.Run("next", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s := 0
			for i := Next(row, 0); i >= 0; i = Next(row, i+1) {
				s += i
			}
			sink = s
		}
	})
	b.Run("word-loop", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s := 0
			for wi, w := range row {
				for ; w != 0; w &= w - 1 {
					s += wi<<6 + bits.TrailingZeros64(w)
				}
			}
			sink = s
		}
	})
}
