package lp

import (
	"math/rand"
	"testing"
)

// welfareLP is a random instance of CIP's welfare LP: n bundles with
// x_e in [0,1] and valuation objective, and one supply row of capacity k
// per item over the bundles that contain it.
func welfareLP(seed int64, n, items int, k float64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(Maximize)
	for e := 0; e < n; e++ {
		p.AddVariable(1+99*rng.Float64(), 0, 1)
	}
	for j := 0; j < items; j++ {
		var idx []int
		var coef []float64
		for e := 0; e < n; e++ {
			if rng.Intn(8) == 0 {
				idx = append(idx, e)
				coef = append(coef, 1)
			}
		}
		p.MustAddConstraint(idx, coef, LE, k)
	}
	return p
}

// TestSolveAllocatesNothingPerRefactorization solves an LP that
// refactorizes its basis inverse several times and requires Solve to
// allocate no more than setting up the simplex does, plus the
// refactorization work matrix (once) and the returned solution: nothing
// that grows with the number of refactorizations.
func TestSolveAllocatesNothingPerRefactorization(t *testing.T) {
	p := welfareLP(3, 400, 120, 3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Iters < 2*refactEvery {
		t.Fatalf("status %v after %d iterations, want optimal after at least %d", sol.Status, sol.Iters, 2*refactEvery)
	}
	setup := testing.AllocsPerRun(1, func() { newSimplex(p) })
	solve := testing.AllocsPerRun(1, func() {
		if _, err := p.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	// The work matrix is two allocations (slab and row headers) and the
	// solution three (Solution, X, Dual).
	if extra := solve - setup; extra > 5 {
		t.Fatalf("Solve allocated %v times beyond the %v of setting up the simplex, over %d refactorizations",
			extra, setup, sol.Iters/refactEvery)
	}
}

func TestRefactorizeAllocatesNothing(t *testing.T) {
	s := newSimplex(welfareLP(5, 200, 100, 2))
	s.refactorize() // first call allocates the work matrix
	if allocs := testing.AllocsPerRun(10, s.refactorize); allocs != 0 {
		t.Fatalf("refactorize allocated %v times per call", allocs)
	}
}
