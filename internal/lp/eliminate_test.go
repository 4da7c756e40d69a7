package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseEliminate is the dense Gauss-Jordan step eliminate replaced: it
// updates every entry of every touched row and of the cost row, zeros
// included. cost may be shorter than the rows (the dual path's reduced
// costs do not carry the rhs column).
func denseEliminate(rows [][]float64, cost []float64, r, c int) {
	pr := rows[r]
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1
	for i, ri := range rows {
		if f := ri[c]; f != 0 && i != r {
			for j := range ri {
				ri[j] -= f * pr[j]
			}
			ri[c] = 0
		}
	}
	if f := cost[c]; f != 0 {
		for j := range cost {
			cost[j] -= f * pr[j]
		}
	}
	cost[c] = 0
}

// sameValue reports whether a kernel entry matches the dense reference:
// bit-equal when either is nonzero, and zero in both otherwise (the sign
// of an exact zero is the one thing the kernel may change).
func sameValue(got, want float64) bool {
	if got == 0 && want == 0 {
		return true
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestEliminateMatchesDense runs random pivot sequences through eliminate +
// reduce and through the dense reference on copies of the same sparse
// matrix — exact zeros, negative zeros and a rhs column included — and
// requires every entry to agree after every pivot. It also pins the
// scratch contract: a buffer sized to the row width never reallocates.
func TestEliminateMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entry := func() float64 {
		switch u := rng.Float64(); {
		case u < 0.55:
			return 0
		case u < 0.65:
			return math.Copysign(0, -1)
		case u < 0.7:
			return float64(rng.Intn(5) - 2) // small integers cancel exactly
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	pivots := 0
	defer func() {
		if pivots < 1000 {
			t.Errorf("only %d pivots exercised", pivots)
		}
	}()
	for trial := 0; trial < 300; trial++ {
		m, width := 1+rng.Intn(12), 2+rng.Intn(24)
		got, want := make([][]float64, m), make([][]float64, m)
		for i := range got {
			got[i], want[i] = make([]float64, width), make([]float64, width)
			for j := range got[i] {
				got[i][j] = entry()
				want[i][j] = got[i][j]
			}
		}
		// Two cost rows: full width like the cold objective row, and one
		// column short like the warm path's reduced costs.
		costLen := width
		if trial%2 == 1 {
			costLen = width - 1
		}
		gotCost, wantCost := make([]float64, costLen), make([]float64, costLen)
		for j := range gotCost {
			gotCost[j] = entry()
			wantCost[j] = gotCost[j]
		}
		nz := make([]int, width)
		base := &nz[:1][0]
		for step := 0; step < 2*m; step++ {
			r, c := rng.Intn(m), rng.Intn(width-1)
			if math.Abs(got[r][c]) < 1e-3 {
				continue
			}
			nz = eliminate(got, r, c, nz)
			reduce(gotCost, got[r], c, nz)
			denseEliminate(want, wantCost, r, c)
			pivots++
			if &nz[:1][0] != base {
				t.Fatalf("trial %d step %d: eliminate reallocated its scratch", trial, step)
			}
			for i := range got {
				for j := range got[i] {
					if !sameValue(got[i][j], want[i][j]) {
						t.Fatalf("trial %d step %d pivot (%d,%d): row %d col %d = %v (%#x), dense %v (%#x)",
							trial, step, r, c, i, j, got[i][j], math.Float64bits(got[i][j]),
							want[i][j], math.Float64bits(want[i][j]))
					}
				}
			}
			for j := range gotCost {
				if !sameValue(gotCost[j], wantCost[j]) {
					t.Fatalf("trial %d step %d pivot (%d,%d): cost col %d = %v, dense %v",
						trial, step, r, c, j, gotCost[j], wantCost[j])
				}
			}
		}
	}
}
