package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// addConstraintRef is the map-based AddConstraint the package used to
// ship, kept as the reference the sort-and-merge version must reproduce
// bit for bit: each variable's coefficients summed from +0 in input order,
// zero sums dropped, the row sorted by variable.
func addConstraintRef(p *Problem, terms []Term, op Op, rhs float64) error {
	if op != LE && op != GE && op != EQ {
		return fmt.Errorf("lp: invalid operator %v", op)
	}
	merged := make(map[int]float64, len(terms))
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			return fmt.Errorf("lp: constraint references unknown variable %d", t.Var)
		}
		merged[t.Var] += t.Coef
	}
	row := make([]Term, 0, len(merged))
	for v, c := range merged {
		if c != 0 {
			row = append(row, Term{Var: v, Coef: c})
		}
	}
	sort.Slice(row, func(i, j int) bool { return row[i].Var < row[j].Var })
	p.cons = append(p.cons, constraint{terms: row, op: op, rhs: rhs})
	return nil
}

// TestAddConstraintMatchesMapReference feeds AddConstraint and the old
// map-based reference the same term lists — duplicates whose sum depends
// on the addition order, terms that cancel to zero, -0 and +0, unknown
// variables — and requires identical stored rows and errors.
func TestAddConstraintMatchesMapReference(t *testing.T) {
	const nVars = 8
	newProblem := func() *Problem {
		p := NewProblem()
		for i := 0; i < nVars; i++ {
			p.AddVariable("x", 1)
		}
		return p
	}
	negZero := math.Copysign(0, -1)
	cases := [][]Term{
		nil,
		{},
		{{Var: 3, Coef: negZero}},
		{{Var: 3, Coef: negZero}, {Var: 3, Coef: negZero}},
		{{Var: 2, Coef: 0}, {Var: 1, Coef: negZero}, {Var: 0, Coef: 5}},
		{{Var: 4, Coef: 1}, {Var: 4, Coef: -1}},
		{{Var: 4, Coef: 0.1}, {Var: 5, Coef: 1}, {Var: 4, Coef: 0.2}, {Var: 4, Coef: 0.3}},
		{{Var: 4, Coef: 0.3}, {Var: 4, Coef: 0.2}, {Var: 4, Coef: 0.1}},
		{{Var: 6, Coef: 1e16}, {Var: 6, Coef: 1}, {Var: 6, Coef: -1e16}},
		{{Var: 6, Coef: -1e16}, {Var: 6, Coef: 1e16}, {Var: 6, Coef: 1}},
		{{Var: 7, Coef: 2}, {Var: 0, Coef: 1}, {Var: 7, Coef: -2}, {Var: 0, Coef: negZero}},
		{{Var: 1, Coef: 1}, {Var: nVars, Coef: 1}},
		{{Var: -1, Coef: 1}},
	}
	pool := []float64{0, negZero, 1, -1, 0.1, 0.2, 0.3, -0.3, 1e-17, 1e16, -1e16, 3}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		terms := make([]Term, rng.Intn(24))
		for k := range terms {
			c := pool[rng.Intn(len(pool))]
			if rng.Intn(4) == 0 {
				c = rng.NormFloat64()
			}
			terms[k] = Term{Var: rng.Intn(nVars), Coef: c}
		}
		cases = append(cases, terms)
	}

	for i, terms := range cases {
		got, want := newProblem(), newProblem()
		in := append([]Term(nil), terms...)
		errGot := got.AddConstraint(in, GE, 1.5)
		errWant := addConstraintRef(want, terms, GE, 1.5)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("case %d %v: error %v, reference %v", i, terms, errGot, errWant)
		}
		for k, term := range in {
			if term.Var != terms[k].Var || math.Float64bits(term.Coef) != math.Float64bits(terms[k].Coef) {
				t.Fatalf("case %d: AddConstraint modified its input", i)
			}
		}
		if len(got.cons) != len(want.cons) {
			t.Fatalf("case %d %v: %d rows stored, reference %d", i, terms, len(got.cons), len(want.cons))
		}
		if len(want.cons) == 0 {
			continue
		}
		g, w := got.cons[0], want.cons[0]
		if g.op != w.op || g.rhs != w.rhs || len(g.terms) != len(w.terms) {
			t.Fatalf("case %d %v: row %v, reference %v", i, terms, g.terms, w.terms)
		}
		for k := range w.terms {
			if g.terms[k].Var != w.terms[k].Var ||
				math.Float64bits(g.terms[k].Coef) != math.Float64bits(w.terms[k].Coef) {
				t.Fatalf("case %d %v: term %d is %+v, reference %+v", i, terms, k, g.terms[k], w.terms[k])
			}
		}
	}
}
