package lp

import (
	"math"
)

// simplex is a bounded-variable revised simplex over the column space
// [structural | slack | artificial]. Slack i has coefficient +1 in row i and
// bounds determined by the row relation; artificial i likewise has a unit
// column and exists only to make the initial basis feasible.
type simplex struct {
	m  int // rows
	nv int // structural variables
	nc int // total columns = nv + 2m

	// Sparse columns in CSC form (structural columns only; slack and
	// artificial columns are implicit unit vectors).
	colPtr []int
	colIdx []int
	colVal []float64

	b []float64 // right-hand sides

	lo, hi []float64 // per-column bounds
	cI     []float64 // phase-I objective (maximize)
	cII    []float64 // phase-II objective (maximize)

	x       []float64 // current value per column
	basis   []int     // column basic in each row
	pos     []int     // row of a basic column, or -1 if nonbasic
	atUpper []bool    // nonbasic column rests at its upper bound

	binv [][]float64 // dense basis inverse, row-major

	// scratch buffers reused across iterations
	y   []float64   // simplex multipliers
	w   []float64   // Binv * A_j
	r   []float64   // residual b - N x_N of recomputeBasics
	aug [][]float64 // [B | I] of refactorize, allocated on first use

	iters       int
	maxIters    int
	sincePivot  int // pivots since last refactorization
	degenerate  int // consecutive degenerate pivots (stall detector)
	useBland    bool
	numericFail bool
}

const (
	tolReduced  = 1e-7 // reduced-cost optimality threshold
	tolPivot    = 1e-9 // minimum pivot magnitude
	tolFeas     = 1e-7 // bound/feasibility tolerance
	tolDegen    = 1e-9 // step sizes below this count as degenerate
	refactEvery = 256  // pivots between refactorizations
	stallLimit  = 200  // degenerate pivots before switching to Bland
	phase1Tol   = 1e-6 // residual infeasibility accepted after phase I
)

func newSimplex(p *Problem) *simplex {
	m := len(p.rows)
	nv := len(p.obj)
	s := &simplex{
		m:  m,
		nv: nv,
		nc: nv + 2*m,
	}
	s.maxIters = p.MaxIters
	if s.maxIters <= 0 {
		s.maxIters = 20000 + 40*(m+nv)
	}

	// Structural columns in CSC form, built from the row-wise constraints.
	counts := make([]int, nv+1)
	for i := range p.rows {
		for _, j := range p.rows[i].idx {
			counts[j+1]++
		}
	}
	for j := 0; j < nv; j++ {
		counts[j+1] += counts[j]
	}
	s.colPtr = counts
	nnz := counts[nv]
	s.colIdx = make([]int, nnz)
	s.colVal = make([]float64, nnz)
	fill := make([]int, nv)
	for i := range p.rows {
		for k, j := range p.rows[i].idx {
			at := s.colPtr[j] + fill[j]
			s.colIdx[at] = i
			s.colVal[at] = p.rows[i].coef[k]
			fill[j]++
		}
	}

	s.b = make([]float64, m)
	s.lo = make([]float64, s.nc)
	s.hi = make([]float64, s.nc)
	s.cI = make([]float64, s.nc)
	s.cII = make([]float64, s.nc)
	s.x = make([]float64, s.nc)
	s.basis = make([]int, m)
	s.pos = make([]int, s.nc)
	s.atUpper = make([]bool, s.nc)
	s.y = make([]float64, m)
	s.w = make([]float64, m)
	s.r = make([]float64, m)

	sign := 1.0
	if p.sense == Minimize {
		sign = -1.0
	}
	for j := 0; j < nv; j++ {
		s.lo[j], s.hi[j] = p.lo[j], p.hi[j]
		s.cII[j] = sign * p.obj[j]
		s.pos[j] = -1
		s.x[j] = nearestBound(p.lo[j], p.hi[j])
		s.atUpper[j] = !math.IsInf(p.hi[j], 1) && s.x[j] == p.hi[j] && s.x[j] != p.lo[j]
	}
	for i := range p.rows {
		s.b[i] = p.rows[i].rhs
		sj := nv + i // slack column
		switch p.rows[i].rel {
		case LE:
			s.lo[sj], s.hi[sj] = 0, math.Inf(1)
		case GE:
			s.lo[sj], s.hi[sj] = math.Inf(-1), 0
		case EQ:
			s.lo[sj], s.hi[sj] = 0, 0
		}
		s.pos[sj] = -1
		s.x[sj] = nearestBound(s.lo[sj], s.hi[sj])
		s.atUpper[sj] = !math.IsInf(s.hi[sj], 1) && s.x[sj] == s.hi[sj] && s.lo[sj] != s.hi[sj]
	}

	// Residual each row's initial basic variable must absorb, with the
	// structural variables at their resting bounds (slack contribution
	// excluded for now).
	r := s.r
	copy(r, s.b)
	for j := 0; j < nv; j++ {
		if s.x[j] != 0 {
			for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
				r[s.colIdx[k]] -= s.colVal[k] * s.x[j]
			}
		}
	}

	s.binv = make([][]float64, m)
	for i := 0; i < m; i++ {
		s.binv[i] = make([]float64, m)
		s.binv[i][i] = 1
		sj := nv + i     // slack column
		aj := nv + m + i // artificial column
		if s.lo[sj] <= r[i] && r[i] <= s.hi[sj] {
			// The slack can absorb the whole residual: start from the slack
			// basis and lock the artificial at zero. For the common
			// max/<=/b>=0 LPs of query pricing this skips phase I entirely.
			s.basis[i] = sj
			s.pos[sj] = i
			s.x[sj] = r[i]
			s.atUpper[sj] = false
			s.x[aj] = 0
			s.lo[aj], s.hi[aj] = 0, 0
			continue
		}
		// Slack rests at its nearest bound; the artificial absorbs the rest.
		resid := r[i] - s.x[sj]
		s.basis[i] = aj
		s.pos[aj] = i
		s.x[aj] = resid
		s.lo[aj] = math.Min(0, resid)
		s.hi[aj] = math.Max(0, resid)
		switch {
		case resid > 0:
			s.cI[aj] = -1
		case resid < 0:
			s.cI[aj] = 1
		}
	}
	return s
}

// nearestBound picks the initial resting value of a nonbasic variable: the
// finite bound closest to zero, or zero for a free variable.
func nearestBound(lo, hi float64) float64 {
	loFin, hiFin := !math.IsInf(lo, -1), !math.IsInf(hi, 1)
	switch {
	case loFin && hiFin:
		if math.Abs(hi) < math.Abs(lo) {
			return hi
		}
		return lo
	case loFin:
		return lo
	case hiFin:
		return hi
	default:
		return 0
	}
}

// unitRow returns the row of the single +1 entry of slack or artificial
// column j (j >= nv).
func (s *simplex) unitRow(j int) int {
	row := j - s.nv
	if row >= s.m {
		row -= s.m
	}
	return row
}

// solve runs phase I (if needed) and phase II and packages the result.
func (s *simplex) solve() *Solution {
	needPhase1 := false
	for i := 0; i < s.m; i++ {
		if s.x[s.nv+s.m+i] != 0 {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		st := s.iterate(s.cI)
		if st == Unbounded || s.numericFail {
			// Phase I is bounded above by 0; reaching here means numerics
			// failed. Report infeasible conservatively.
			return &Solution{Status: Infeasible, X: s.structX(), Dual: make([]float64, s.m), Iters: s.iters}
		}
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			infeas += math.Abs(s.x[s.nv+s.m+i])
		}
		if infeas > phase1Tol*(1+norm1(s.b)) {
			status := Infeasible
			if st == IterationLimit {
				// Ran out of budget before deciding feasibility.
				status = IterationLimit
			}
			return &Solution{Status: status, X: s.structX(), Dual: make([]float64, s.m), Iters: s.iters}
		}
	}
	// Lock artificials at zero for phase II.
	for i := 0; i < s.m; i++ {
		aj := s.nv + s.m + i
		s.lo[aj], s.hi[aj] = 0, 0
		s.x[aj] = 0
		s.atUpper[aj] = false
	}
	st := s.iterate(s.cII)
	s.recomputeBasics()

	obj := 0.0
	for j := 0; j < s.nv; j++ {
		obj += s.cII[j] * s.x[j]
	}
	s.multipliers(s.cII)
	dual := make([]float64, s.m)
	copy(dual, s.y)
	status := st
	if s.numericFail && status == Optimal {
		status = IterationLimit
	}
	return &Solution{Status: status, Objective: obj, X: s.structX(), Dual: dual, Iters: s.iters}
}

func (s *simplex) structX() []float64 {
	out := make([]float64, s.nv)
	copy(out, s.x[:s.nv])
	return out
}

func norm1(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += math.Abs(x)
	}
	return t
}

// multipliers computes y = c_B^T * Binv into s.y.
func (s *simplex) multipliers(c []float64) {
	y := s.y
	clear(y)
	// Rows with a nonzero cost are folded in four at a time: every y[k]
	// still receives its terms one by one in row order, but is loaded and
	// stored once per block instead of once per row.
	var cb [4]float64
	var rows [4][]float64
	n := 0
	for r, j := range s.basis {
		if c[j] == 0 {
			continue
		}
		cb[n], rows[n] = c[j], s.binv[r][:len(y)]
		if n++; n < len(cb) {
			continue
		}
		n = 0
		c0, c1, c2, c3 := cb[0], cb[1], cb[2], cb[3]
		r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]
		for k := range y {
			t := y[k]
			t += c0 * r0[k]
			t += c1 * r1[k]
			t += c2 * r2[k]
			t += c3 * r3[k]
			y[k] = t
		}
	}
	for i := 0; i < n; i++ {
		ci, row := cb[i], rows[i]
		for k := range y {
			y[k] += ci * row[k]
		}
	}
}

// reducedCost returns d_j = c_j - y . A_j for nonbasic column j.
func (s *simplex) reducedCost(c []float64, j int) float64 {
	d := c[j]
	if j >= s.nv {
		return d - s.y[s.unitRow(j)]
	}
	for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
		d -= s.y[s.colIdx[k]] * s.colVal[k]
	}
	return d
}

// ftran computes w = Binv * A_j into s.w one row of the inverse at a time,
// each w[i] accumulated over the column's nonzeros in CSC order. A unit
// column copies its row's entries; the sign of a zero in w never matters,
// because every use of w skips its zeros or compares them with a
// tolerance.
func (s *simplex) ftran(j int) {
	if j >= s.nv {
		r := s.unitRow(j)
		for i, row := range s.binv {
			s.w[i] = row[r]
		}
		return
	}
	idx := s.colIdx[s.colPtr[j]:s.colPtr[j+1]]
	val := s.colVal[s.colPtr[j]:s.colPtr[j+1]]
	for i, row := range s.binv {
		wi := 0.0
		for k, r := range idx {
			wi += row[r] * val[k]
		}
		s.w[i] = wi
	}
}

// iterate runs simplex iterations for the given (maximization) objective
// until optimal, unbounded, or the iteration budget is exhausted.
func (s *simplex) iterate(c []float64) Status {
	// The multipliers y = c_B * Binv depend only on the basis and its
	// inverse, so a bound flip (which changes neither) keeps them; only a
	// pivot, which may also refactorize, makes them stale.
	stale := true
	for {
		if s.iters >= s.maxIters {
			return IterationLimit
		}
		s.iters++
		if stale {
			s.multipliers(c)
			stale = false
		}

		enter := -1
		var enterDelta float64 // +1 entering increases, -1 decreases
		best := tolReduced
		for j := 0; j < s.nc; j++ {
			if s.pos[j] >= 0 || s.lo[j] == s.hi[j] {
				continue // basic or fixed
			}
			d := s.reducedCost(c, j)
			free := math.IsInf(s.lo[j], -1) && math.IsInf(s.hi[j], 1)
			var delta float64
			switch {
			case free && d > tolReduced:
				delta = 1
			case free && d < -tolReduced:
				delta = -1
			case !s.atUpper[j] && d > tolReduced:
				delta = 1
			case s.atUpper[j] && d < -tolReduced:
				delta = -1
			default:
				continue
			}
			if s.useBland {
				enter, enterDelta = j, delta
				break
			}
			if math.Abs(d) > best {
				best = math.Abs(d)
				enter, enterDelta = j, delta
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Direction of change of the basic variables per unit of entering
		// movement: x_B -= delta * w, with w = Binv * A_enter.
		s.ftran(enter)

		// Ratio test.
		limit := math.Inf(1)
		if !math.IsInf(s.hi[enter], 1) && !math.IsInf(s.lo[enter], -1) {
			limit = s.hi[enter] - s.lo[enter] // bound-flip distance
		}
		leaveRow := -1
		leaveToUpper := false
		for i := 0; i < s.m; i++ {
			rate := -enterDelta * s.w[i] // d x_basic[i] / d step
			k := s.basis[i]
			var step float64
			var toUpper bool
			switch {
			case rate > tolPivot:
				if math.IsInf(s.hi[k], 1) {
					continue
				}
				step = (s.hi[k] - s.x[k]) / rate
				toUpper = true
			case rate < -tolPivot:
				if math.IsInf(s.lo[k], -1) {
					continue
				}
				step = (s.lo[k] - s.x[k]) / rate
				toUpper = false
			default:
				continue
			}
			if step < 0 {
				step = 0 // slight infeasibility from roundoff: degenerate step
			}
			if step < limit || (step == limit && leaveRow >= 0 && s.useBland && s.basis[i] < s.basis[leaveRow]) {
				limit = step
				leaveRow = i
				leaveToUpper = toUpper
			}
		}

		if math.IsInf(limit, 1) {
			return Unbounded
		}
		if limit <= tolDegen {
			s.degenerate++
			if s.degenerate > stallLimit {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
		}

		// Apply the move to the basic variables and the entering variable.
		for i := 0; i < s.m; i++ {
			if s.w[i] != 0 {
				k := s.basis[i]
				s.x[k] -= enterDelta * limit * s.w[i]
			}
		}

		if leaveRow < 0 {
			// Bound flip: the entering variable traverses its whole range.
			if enterDelta > 0 {
				s.x[enter] = s.hi[enter]
				s.atUpper[enter] = true
			} else {
				s.x[enter] = s.lo[enter]
				s.atUpper[enter] = false
			}
			continue
		}

		// Pivot: basis change.
		stale = true
		s.x[enter] += enterDelta * limit
		leave := s.basis[leaveRow]
		if leaveToUpper {
			s.x[leave] = s.hi[leave]
			s.atUpper[leave] = true
		} else {
			s.x[leave] = s.lo[leave]
			s.atUpper[leave] = false
		}
		s.pos[leave] = -1
		s.pos[enter] = leaveRow
		s.basis[leaveRow] = enter

		piv := s.w[leaveRow]
		if math.Abs(piv) < tolPivot {
			// Should not happen (ratio test only picks rows with a usable
			// pivot); guard against numerical surprises.
			s.numericFail = true
			return IterationLimit
		}
		prow := s.binv[leaveRow]
		inv := 1 / piv
		for k := 0; k < s.m; k++ {
			prow[k] *= inv
		}
		for i := 0; i < s.m; i++ {
			if i == leaveRow {
				continue
			}
			f := s.w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i]
			for k := 0; k < s.m; k++ {
				row[k] -= f * prow[k]
			}
		}

		s.sincePivot++
		if s.sincePivot >= refactEvery {
			s.refactorize()
			s.sincePivot = 0
		}
	}
}

// recomputeBasics recomputes x_B = Binv*(b - N x_N) exactly, killing the
// incremental drift accumulated during pivoting.
func (s *simplex) recomputeBasics() {
	r := s.r
	copy(r, s.b)
	for j := 0; j < s.nc; j++ {
		if s.pos[j] >= 0 || s.x[j] == 0 {
			continue
		}
		xj := s.x[j]
		if j >= s.nv {
			r[s.unitRow(j)] -= xj
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			r[s.colIdx[k]] -= s.colVal[k] * xj
		}
	}
	for i := 0; i < s.m; i++ {
		xb := 0.0
		row := s.binv[i]
		for k := 0; k < s.m; k++ {
			xb += row[k] * r[k]
		}
		s.x[s.basis[i]] = xb
	}
}

// refactorize rebuilds Binv from scratch by Gauss-Jordan elimination with
// partial pivoting and recomputes the basic values. The m x 2m work matrix
// is allocated once per solve and reset on every later call.
func (s *simplex) refactorize() {
	m := s.m
	// aug = [B | I], reduced in place to [I | Binv].
	if s.aug == nil {
		slab := make([]float64, m*2*m)
		s.aug = make([][]float64, m)
		for i := range s.aug {
			s.aug[i] = slab[i*2*m : (i+1)*2*m : (i+1)*2*m]
		}
	}
	aug := s.aug
	for i := 0; i < m; i++ {
		clear(aug[i])
		aug[i][m+i] = 1
	}
	for r, j := range s.basis {
		if j >= s.nv {
			aug[s.unitRow(j)][r] = 1
			continue
		}
		for k := s.colPtr[j]; k < s.colPtr[j+1]; k++ {
			aug[s.colIdx[k]][r] = s.colVal[k]
		}
	}
	for col := 0; col < m; col++ {
		p := col
		for i := col + 1; i < m; i++ {
			if math.Abs(aug[i][col]) > math.Abs(aug[p][col]) {
				p = i
			}
		}
		if math.Abs(aug[p][col]) < 1e-12 {
			s.numericFail = true
			return
		}
		aug[col], aug[p] = aug[p], aug[col]
		inv := 1 / aug[col][col]
		for k := col; k < 2*m; k++ {
			aug[col][k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			f := aug[i][col]
			if f == 0 {
				continue
			}
			for k := col; k < 2*m; k++ {
				aug[i][k] -= f * aug[col][k]
			}
		}
	}
	for i := 0; i < m; i++ {
		copy(s.binv[i], aug[i][m:])
	}
	s.recomputeBasics()
}
