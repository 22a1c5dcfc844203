package radio

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
)

func TestFSMCConstruction(t *testing.T) {
	f, err := NewFSMC(15, 6, 0.002, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.States() != 8 {
		t.Fatalf("states %d", f.States())
	}
	if f.Strained() {
		t.Fatal("pedestrian doppler at 10ms slots should not strain the chain")
	}
	// Representative SNRs must be strictly increasing.
	for k := 1; k < f.States(); k++ {
		if f.RepSNRdB(k) <= f.RepSNRdB(k-1) {
			t.Fatalf("rep SNR not increasing at state %d", k)
		}
	}
	// Averaging representative linear SNRs over the uniform stationary
	// distribution must recover the mean SNR.
	if got := f.StationaryDB(); math.Abs(got-15) > 0.2 {
		t.Fatalf("stationary mean %v dB, want 15", got)
	}
	if f.MeanSNRdB() != 15 || f.SlotSec() != 0.002 {
		t.Fatal("accessors broken")
	}
}

func TestFSMCRejectsBadParams(t *testing.T) {
	if _, err := NewFSMC(10, 6, 0.01, 1); err == nil {
		t.Error("1 state accepted")
	}
	if _, err := NewFSMC(10, 0, 0.01, 4); err == nil {
		t.Error("zero doppler accepted")
	}
	if _, err := NewFSMC(10, 6, 0, 4); err == nil {
		t.Error("zero slot accepted")
	}
}

// TestFSMCRejectsUnmixedChain: a chain too slow to mix within maxMixSlots
// is refused at construction instead of walking without end.
func TestFSMCRejectsUnmixedChain(t *testing.T) {
	if _, err := NewFSMC(10, 1e-3, 0.002, 2); err == nil {
		t.Fatal("a 1 mHz chain at 2 ms slots was tabulated")
	}
}

func TestFSMCStrainedFlag(t *testing.T) {
	// Enormous Doppler with long slots violates fd·T ≪ 1; construction must
	// still succeed but flag the regime violation.
	f, err := NewFSMC(10, 500, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Strained() {
		t.Fatal("expected strained chain")
	}
	// Probabilities must still be valid after refinement.
	r := rng.New(1)
	state := f.StationarySample(r)
	for i := 0; i < 10000; i++ {
		state = f.Step(state, r)
		if state < 0 || state >= f.States() {
			t.Fatalf("state %d escaped", state)
		}
	}
}

func TestFSMCStationaryOccupancy(t *testing.T) {
	// The empirical state occupancy of a long trajectory must converge to
	// the analytic (uniform) stationary distribution — the key invariant
	// linking the chain back to Rayleigh statistics.
	f, err := NewFSMC(18, 6, 0.005, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	counts := make([]int, f.States())
	state := f.StationarySample(r)
	const steps = 2_000_000
	for i := 0; i < steps; i++ {
		state = f.Step(state, r)
		counts[state]++
	}
	want := float64(steps) / float64(f.States())
	for k, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.08 {
			t.Errorf("state %d occupancy %d, want ~%.0f", k, c, want)
		}
	}
}

func TestFSMCAdjacentOnly(t *testing.T) {
	f, err := NewFSMC(12, 6, 0.01, 6)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	state := 3
	for i := 0; i < 100000; i++ {
		next := f.Step(state, r)
		if d := next - state; d < -1 || d > 1 {
			t.Fatalf("non-adjacent jump %d -> %d", state, next)
		}
		state = next
	}
}

func TestFSMCAdvance(t *testing.T) {
	f, err := NewFSMC(12, 6, 0.01, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	// Zero or negative advancement is identity.
	if got := f.Advance(4, 0, r); got != 4 {
		t.Fatalf("Advance(…,0) = %d", got)
	}
	if got := f.Advance(4, -3, r); got != 4 {
		t.Fatalf("Advance(…,-3) = %d", got)
	}
	// Short advancement stays within ±slots·m of the start: each of the m
	// sub-steps of a slot moves at most one state.
	reach := 3 * f.tab.sub
	for i := 0; i < 1000; i++ {
		got := f.Advance(4, 3, r)
		if got < 4-reach || got > 4+reach {
			t.Fatalf("3-slot advance moved 4 -> %d", got)
		}
	}
	// A gap beyond the mixing horizon resamples the stationary distribution;
	// starting pinned at state 0, the long-gap distribution must be ~uniform.
	counts := make([]int, f.States())
	const n = 100000
	for i := 0; i < n; i++ {
		counts[f.Advance(0, 1<<40, r)]++
	}
	want := float64(n) / float64(f.States())
	for k, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.1 {
			t.Errorf("long-gap state %d count %d, want ~%.0f", k, c, want)
		}
	}
}

func TestFSMCTimeCorrelation(t *testing.T) {
	// One slot apart the chain must be strongly correlated; far apart it
	// must decorrelate. Measured via P(same state).
	f, err := NewFSMC(15, 6, 0.002, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	sameNear, sameFar := 0, 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		s0 := f.StationarySample(r)
		if f.Advance(s0, 1, r) == s0 {
			sameNear++
		}
		if f.Advance(s0, f.tab.mix+1, r) == s0 {
			sameFar++
		}
	}
	pNear := float64(sameNear) / trials
	pFar := float64(sameFar) / trials
	if pNear < 0.8 {
		t.Errorf("near correlation too weak: %v", pNear)
	}
	if math.Abs(pFar-1.0/8) > 0.03 {
		t.Errorf("far correlation should be ~1/K: %v", pFar)
	}
}

// refWalk is the per-sub-step walk the n-step tables replace: one uniform
// per level-crossing sub-step, m sub-steps per slot, over the sub-chain's
// up and down probabilities.
func refWalk(up, down []float64, m int, state int, slots int64, r *rng.Source) int {
	for steps := slots * int64(m); steps > 0; steps-- {
		u := r.Float64()
		if u < up[state] {
			state++
		} else if u < up[state]+down[state] {
			state--
		}
	}
	return state
}

// chiSquareCritical approximates the upper critical value of the chi-square
// law with dof degrees of freedom at standard-normal quantile z
// (Wilson–Hilferty).
func chiSquareCritical(dof int, z float64) float64 {
	d := float64(dof)
	h := 2 / (9 * d)
	c := 1 - h + z*math.Sqrt(h)
	return d * c * c * c
}

// TestFSMCAdvanceMatchesWalk: the one- or two-draw n-step law of Advance is
// the law of the per-sub-step walk, for every start state and gaps on both
// sides of the table's seams (S, N), on an unrefined (6 Hz) and a refined
// (120 Hz) chain. Two-sample chi-square per gap, summed over start states.
func TestFSMCAdvanceMatchesWalk(t *testing.T) {
	for _, fd := range []float64{6, 120} {
		f, err := NewFSMC(0, fd, 0.002, 8)
		if err != nil {
			t.Fatal(err)
		}
		up, down, m := subChain(tableKey{dopplerHz: fd, slotSec: 0.002, states: 8})
		tab := f.tab
		span, mix := int64(1)<<tab.shift, tab.mix
		gaps := []int64{1, 2, 17, span - 1, span, span + 1, 666, mix - 1, mix, 10 * mix}
		for gi, n := range gaps {
			// Short gaps, where the table's seams could misplace mass, get
			// many trials; long walks get fewer, to bound the test's cost.
			trials := 2000
			if n*int64(m) > 1000 {
				trials = 200
			}
			stat, dof := 0.0, 0
			for s := 0; s < f.States(); s++ {
				got := make([]int, f.States())
				want := make([]int, f.States())
				for i := 0; i < trials; i++ {
					seed := uint64(gi*f.States()+s)<<32 | uint64(i)
					got[f.Advance(s, n, rng.New(seed))]++
					want[refWalk(up, down, m, s, n, rng.New(seed^0x9e3779b97f4a7c15))]++
				}
				bins := 0
				for k := range got {
					if c := got[k] + want[k]; c > 0 {
						d := float64(got[k] - want[k])
						stat += d * d / float64(c)
						bins++
					}
				}
				dof += bins - 1
			}
			// z = 4.75: a false alarm on ~1 in 10⁶ gaps.
			if crit := chiSquareCritical(dof, 4.75); stat > crit {
				t.Errorf("fd=%v n=%d: chi-square %.1f > %.1f on %d dof", fd, n, stat, crit, dof)
			}
		}
	}
}

// slotMatrix returns the dense one-slot transition matrix P = P_sub^m,
// computed independently of the table walker.
func slotMatrix(key tableKey) [][]float64 {
	up, down, m := subChain(key)
	k := key.states
	sub := make([][]float64, k)
	for s := range sub {
		sub[s] = make([]float64, k)
		sub[s][s] = 1 - up[s] - down[s]
		if s+1 < k {
			sub[s][s+1] = up[s]
		}
		if s > 0 {
			sub[s][s-1] = down[s]
		}
	}
	p := sub
	for i := 1; i < m; i++ {
		p = matMul(p, sub)
	}
	return p
}

func matMul(a, b [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = make([]float64, len(b[0]))
		for l, ail := range a[i] {
			for j := range out[i] {
				out[i][j] += float64(ail * b[l][j])
			}
		}
	}
	return out
}

func matPow(p [][]float64, n int64) [][]float64 {
	out := make([][]float64, len(p))
	for i := range out {
		out[i] = make([]float64, len(p))
		out[i][i] = 1
	}
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			out = matMul(out, p)
		}
		p = matMul(p, p)
	}
	return out
}

// worstTV reports the largest total-variation distance of a row of m from
// uniform, each row normalized to unit mass first so that the rounding drift
// of the repeated squaring does not count.
func worstTV(m [][]float64) float64 {
	worst := 0.0
	for _, row := range m {
		mass := 0.0
		for _, v := range row {
			mass += v
		}
		tv := 0.0
		for _, v := range row {
			tv += math.Abs(v/mass - 1/float64(len(row)))
		}
		worst = math.Max(worst, tv/2)
	}
	return worst
}

// TestFSMCMixingHorizon: every row of P^N is within 1e-12 of uniform in total
// variation and N is the first such n, checked by repeated squaring of the
// dense slot matrix rather than by the table's own walk. The two products
// round differently by ~1e-15, a slow chain's distance shrinks by only ~0.2%
// a slot, so both sides of the threshold get 1% of slack. The paper-default
// chain mixes in 2044 slots.
func TestFSMCMixingHorizon(t *testing.T) {
	for _, fd := range []float64{1, 6, 30, 120} {
		key := tableKey{dopplerHz: fd, slotSec: 0.002, states: 8}
		tab, err := sharedTable(key)
		if err != nil {
			t.Fatal(err)
		}
		p := slotMatrix(key)
		if tv := worstTV(matPow(p, tab.mix)); tv > 1.01*mixTV {
			t.Errorf("fd=%v: rows of P^%d are %g from uniform", fd, tab.mix, tv)
		}
		if tv := worstTV(matPow(p, tab.mix-1)); tv <= 0.99*mixTV {
			t.Errorf("fd=%v: P^%d is already mixed (%g)", fd, tab.mix-1, tv)
		}
	}
	if tab, _ := sharedTable(tableKey{dopplerHz: 6, slotSec: 0.002, states: 8}); tab.mix != 2044 {
		t.Errorf("paper-default mixing horizon %d slots, want 2044", tab.mix)
	}
}

// TestFSMCTableRows: every stored row is a non-decreasing CDF ending at
// exactly 1, and each block is the matching power of the slot matrix.
func TestFSMCTableRows(t *testing.T) {
	for _, key := range []tableKey{
		{6, 0.002, 8}, {1, 0.002, 8}, {30, 0.002, 8}, {120, 0.002, 8}, {6, 0.01, 6}, {500, 0.05, 8},
	} {
		tab, err := sharedTable(key)
		if err != nil {
			t.Fatal(err)
		}
		k := tab.k
		for _, level := range [][]float64{tab.fine, tab.coarse} {
			if len(level)%(k*k) != 0 {
				t.Fatalf("%v: level length %d not a whole number of blocks", key, len(level))
			}
			for off := 0; off < len(level); off += k {
				row := level[off : off+k]
				if row[0] < 0 || row[k-1] != 1 {
					t.Fatalf("%v: row %v does not run from ≥0 to 1", key, row)
				}
				for j := 1; j < k; j++ {
					if row[j] < row[j-1] {
						t.Fatalf("%v: row %v decreases", key, row)
					}
				}
			}
		}
		span := int64(1) << tab.shift
		p := slotMatrix(key)
		check := func(level []float64, block int, n int64) {
			want := matPow(p, n)
			for s := 0; s < k; s++ {
				off := ((block-1)*k + s) * k
				acc := 0.0
				for j := 0; j < k; j++ {
					acc += want[s][j]
					if math.Abs(level[off+j]-math.Min(acc, 1)) > 1e-9 {
						t.Fatalf("%v: P^%d row %d = %v, want CDF of %v", key, n, s, level[off:off+k], want[s])
					}
				}
			}
		}
		if len(tab.fine) > 0 {
			check(tab.fine, 1, 1)
			check(tab.fine, int(min(span, tab.mix)-1), min(span, tab.mix)-1)
		}
		if q := len(tab.coarse) / (k * k); q > 0 {
			check(tab.coarse, q, int64(q)*span)
		}
	}
}

// TestFSMCTableBytes: the two-level table stays small — at most 64 KB at
// paper defaults and 128 KB at 1 Hz, where the chain mixes six times slower.
func TestFSMCTableBytes(t *testing.T) {
	for _, c := range []struct {
		fd    float64
		limit int
	}{{6, 64 << 10}, {1, 128 << 10}} {
		tab, err := sharedTable(tableKey{dopplerHz: c.fd, slotSec: 0.002, states: 8})
		if err != nil {
			t.Fatal(err)
		}
		if b := 8 * (len(tab.fine) + len(tab.coarse)); b > c.limit {
			t.Errorf("fd=%v: table holds %d bytes, limit %d", c.fd, b, c.limit)
		}
	}
}

// TestFSMCRefinement: slots too long for the level-crossing approximation
// run on m sub-slots with m = ⌊max(p_up+p_down)⌋ + 1; paper defaults and the
// slow Doppler points are untouched (m = 1). Every sub-step is symmetric
// (p_up(k) = p_down(k+1)), so the stationary law is exactly uniform.
func TestFSMCRefinement(t *testing.T) {
	for _, c := range []struct {
		fd, slot float64
		m        int
	}{{1, 0.002, 1}, {6, 0.002, 1}, {30, 0.002, 2}, {120, 0.002, 5}, {6, 0.01, 2}} {
		key := tableKey{dopplerHz: c.fd, slotSec: c.slot, states: 8}
		up, down, m := subChain(key)
		if m != c.m {
			t.Errorf("fd=%v slot=%v: %d sub-steps, want %d", c.fd, c.slot, m, c.m)
		}
		for s := range up {
			if up[s]+down[s] >= 1 {
				t.Errorf("fd=%v: state %d leaves with probability %v", c.fd, s, up[s]+down[s])
			}
			if s+1 < len(up) && up[s] != down[s+1] {
				t.Errorf("fd=%v: detailed balance broken between %d and %d", c.fd, s, s+1)
			}
		}
		f, err := NewFSMC(10, c.fd, c.slot, 8)
		if err != nil {
			t.Fatal(err)
		}
		if f.Strained() != (c.m > 1) {
			t.Errorf("fd=%v slot=%v: Strained()=%v", c.fd, c.slot, f.Strained())
		}
	}
}

// TestFSMCSharedTablesConcurrent builds chains from many goroutines, several
// per key, and checks that each key yields exactly one shared table. Run
// under -race it also proves the cache is race-free.
func TestFSMCSharedTablesConcurrent(t *testing.T) {
	dopplers := []float64{2.5, 3.5, 4.5, 5.5}
	const perKey = 8
	chains := make([]*FSMC, len(dopplers)*perKey)
	var wg sync.WaitGroup
	for i := range chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := NewFSMC(float64(i), dopplers[i%len(dopplers)], 0.002, 8)
			if err != nil {
				t.Error(err)
				return
			}
			chains[i] = f
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, f := range chains {
		for j, g := range chains[:i] {
			same := i%len(dopplers) == j%len(dopplers)
			if (f.tab == g.tab) != same {
				t.Fatalf("chains %d and %d: shared table %v, want %v", i, j, f.tab == g.tab, same)
			}
		}
	}
}

// BenchmarkFSMCAdvance: the cost of a draw does not grow with the gap.
func BenchmarkFSMCAdvance(b *testing.B) {
	f, err := NewFSMC(18, 6, 0.002, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int64{1, 64, 2048, 1 << 40} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := rng.New(1)
			state := 0
			for i := 0; i < b.N; i++ {
				state = f.Advance(state, n, r)
			}
			advanceSink = state
		})
	}
}

var advanceSink int
