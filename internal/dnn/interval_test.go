package dnn

import (
	"math"
	"testing"
)

func TestMulIntervalZeroFactor(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct {
		al, ah, bl, bh, lo, hi float32
	}{
		{1, 2, 3, 4, 3, 8},
		{-2, 1, 3, 4, -8, 4},
		{-2, -1, -4, -3, 3, 8},
		{-1, 1, -1, 1, -1, 1},
		{0, 0, -5, 5, 0, 0},
		// A zero factor is an exact 0 even against an infinite bound.
		{0, 0, -inf, inf, 0, 0},
		{-inf, inf, 0, 0, 0, 0},
		{0, 1, -inf, inf, -inf, inf},
		{-2, 0, 0x1p127, inf, -inf, 0},
		// Overflow rounds to infinity as the float64 product would.
		{0x1p127, 0x1p127, 2, 2, inf, inf},
	}
	for _, c := range cases {
		lo, hi := mulInterval(c.al, c.ah, c.bl, c.bh)
		if lo != c.lo || hi != c.hi {
			t.Errorf("mul([%v,%v],[%v,%v]) = [%v,%v], want [%v,%v]", c.al, c.ah, c.bl, c.bh, lo, hi, c.lo, c.hi)
		}
	}
}
