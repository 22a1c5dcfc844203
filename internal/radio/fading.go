package radio

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
)

// FSMC is a finite-state Markov chain abstraction of Rayleigh fading around
// a fixed mean SNR. The SNR axis is partitioned into K equal-stationary-
// probability states; transition probabilities to the adjacent states over a
// step of length τ follow the level-crossing-rate formula for Rayleigh fading
// at Doppler frequency fd:
//
//	N(Γ) = sqrt(2π·Γ/γ̄) · fd · exp(−Γ/γ̄)
//	p(k→k+1) ≈ N(Γ_{k+1})·τ / π_k,   p(k→k−1) ≈ N(Γ_k)·τ / π_k
//
// (Wang & Moayeri 1995). The approximation requires fd·τ ≪ 1. When a whole
// slot is too long for it (p_up + p_down > 1 in some state), the chain runs
// on m equal sub-slots τ = T_slot/m, m = ⌊max(p_up + p_down)⌋ + 1, and the
// slot chain is P_sub^m; Strained reports that refinement. Either way every
// step is reversible with respect to the uniform law, so the stationary law
// is exactly uniform, and every state keeps a self-loop, so the chain is
// aperiodic.
//
// The transition law depends on (fd, T_slot, K) only, never on the mean, so
// its n-step laws are tabulated once per process and key and shared by every
// chain with that key: Advance draws any gap in O(1).
type FSMC struct {
	meanSNR float64   // γ̄, linear
	slotSec float64   // T_slot
	repDB   []float64 // representative SNR per state, dB
	tab     *nstepTable
}

// NewFSMC builds a K-state chain for the given mean SNR (dB), Doppler (Hz),
// and slot duration (seconds). K must be ≥ 2.
func NewFSMC(meanSNRdB float64, dopplerHz float64, slotSec float64, states int) (*FSMC, error) {
	if states < 2 {
		return nil, fmt.Errorf("radio: FSMC needs at least 2 states, got %d", states)
	}
	if dopplerHz <= 0 || slotSec <= 0 {
		return nil, fmt.Errorf("radio: FSMC needs positive doppler and slot (fd=%v, T=%v)", dopplerHz, slotSec)
	}
	tab, err := sharedTable(tableKey{dopplerHz: dopplerHz, slotSec: slotSec, states: states})
	if err != nil {
		return nil, err
	}
	mean := FromDB(meanSNRdB)
	f := &FSMC{
		meanSNR: mean,
		slotSec: slotSec,
		repDB:   make([]float64, states),
		tab:     tab,
	}
	thr := thresholds(mean, states)

	// Representative SNR per state: conditional mean of the exponential over
	// [Γ_k, Γ_{k+1}), scaled by 1/π_k = K.
	// ∫_a^b γ·(1/γ̄)e^{−γ/γ̄} dγ = (a+γ̄)e^{−a/γ̄} − (b+γ̄)e^{−b/γ̄}.
	// The product is rounded explicitly so that the difference below cannot
	// fuse into a multiply-subtract on any platform.
	partial := func(x float64) float64 {
		if math.IsInf(x, 1) {
			return 0
		}
		return float64((x + mean) * math.Exp(-x/mean))
	}
	for k := 0; k < states; k++ {
		rep := float64(states) * (partial(thr[k]) - partial(thr[k+1]))
		if rep <= 0 {
			rep = thr[k] // degenerate numeric corner; fall back to lower edge
		}
		f.repDB[k] = ToDB(rep)
	}
	return f, nil
}

// thresholds returns the equal-probability thresholds of the exponential SNR
// distribution: Γ_k = −γ̄·ln(1 − k/K), k = 0…K (Γ_0 = 0, Γ_K = ∞).
func thresholds(mean float64, states int) []float64 {
	thr := make([]float64, states+1)
	for k := 0; k < states; k++ {
		thr[k] = -mean * math.Log(1-float64(k)/float64(states))
	}
	thr[states] = math.Inf(1)
	return thr
}

// States reports K.
func (f *FSMC) States() int { return len(f.repDB) }

// Strained reports whether the slot was too long for the level-crossing
// approximation (fd·T_slot not ≪ 1), so the chain had to run on sub-slots.
func (f *FSMC) Strained() bool { return f.tab.sub > 1 }

// RepSNRdB reports the representative SNR of a state in dB.
func (f *FSMC) RepSNRdB(state int) float64 { return f.repDB[state] }

// MeanSNRdB reports γ̄ in dB.
func (f *FSMC) MeanSNRdB() float64 { return ToDB(f.meanSNR) }

// SlotSec reports the chain's slot duration in seconds.
func (f *FSMC) SlotSec() float64 { return f.slotSec }

// StationarySample draws a state from the stationary distribution (uniform
// by construction).
func (f *FSMC) StationarySample(r *rng.Source) int {
	return r.Intn(len(f.repDB))
}

// Step advances the chain one slot from the given state.
func (f *FSMC) Step(state int, r *rng.Source) int {
	return f.Advance(state, 1, r)
}

// Advance moves the chain `slots` slots forward in O(1): one uniform for a
// gap below S, two at most below the mixing horizon N, and a stationary draw
// from N on, where every n-step law is within 1e-12 of uniform in total
// variation.
func (f *FSMC) Advance(state int, slots int64, r *rng.Source) int {
	t := f.tab
	switch {
	case slots <= 0:
		return state
	case slots >= t.mix:
		return f.StationarySample(r)
	}
	if q := slots >> t.shift; q > 0 {
		state = t.draw(t.coarse, int(q), state, r.Float64())
	}
	if n := slots & (1<<t.shift - 1); n > 0 {
		state = t.draw(t.fine, int(n), state, r.Float64())
	}
	return state
}

// StationaryDB reports the mean SNR in dB averaged over representative state
// values (a sanity quantity used in tests: it must sit close to γ̄).
func (f *FSMC) StationaryDB() float64 {
	sum := 0.0
	for _, db := range f.repDB {
		sum += FromDB(db)
	}
	return ToDB(sum / float64(len(f.repDB)))
}

// mixTV is the total-variation distance from the uniform law within which
// every row of Pⁿ must lie for the chain to count as mixed after n slots.
const mixTV = 1e-12

// maxMixSlots bounds the search for the mixing horizon, and with it the
// table's build time and size: a chain this slow (fd·T_slot below about
// 2·10⁻⁵ at K = 8, e.g. 0.01 Hz at 2 ms slots) is rejected.
const maxMixSlots = 1 << 20

// nstepTable holds the n-step laws of one (fd, T_slot, K) chain as CDF rows,
// in two levels so that it stays O(√N·K²): fine rows for Pⁿ, n = 1…S−1, and
// coarse rows for P^{qS}, q = 1…⌊(N−1)/S⌋. N is the first n at which every
// row of Pⁿ is within mixTV of uniform, and S is the power of two nearest √N
// (in log scale, which minimizes the table). Block n's row for start state s
// is [((n−1)·K + s)·K, …+K) of its level. At paper defaults (6 Hz, 2 ms,
// K = 8) N = 2044 and S = 32, and the table holds 47 KiB.
type nstepTable struct {
	k      int
	sub    int   // m: LCR sub-steps per slot, 1 unless the slot needed refinement
	mix    int64 // N
	shift  uint  // log2 S
	fine   []float64
	coarse []float64
}

// draw inverts start state s's CDF row in block n of level tab with the
// uniform u: the smallest j with u < cdf[j]. The search starts at s, where
// the short gaps that dominate lazy advancement mostly end.
func (t *nstepTable) draw(tab []float64, n, s int, u float64) int {
	k := t.k
	off := ((n-1)*k + s) * k
	row := tab[off : off+k]
	j := s
	if u < row[j] {
		for j > 0 && u < row[j-1] {
			j--
		}
		return j
	}
	for u >= row[j] { // row[k−1] = 1 > u ends the scan
		j++
	}
	return j
}

type tableKey struct {
	dopplerHz, slotSec float64
	states             int
}

// tables is the process-wide table cache. Sweeps build channels on many
// goroutines at once; the first caller for a key builds its table under the
// lock (about a millisecond at paper defaults) and every later one shares it.
var tables = struct {
	sync.Mutex
	m map[tableKey]*nstepTable
}{m: make(map[tableKey]*nstepTable)}

// sharedTable returns the table for key, building it on first use.
func sharedTable(key tableKey) (*nstepTable, error) {
	tables.Lock()
	defer tables.Unlock()
	if t := tables.m[key]; t != nil {
		return t, nil
	}
	t, err := buildTable(key)
	if err != nil {
		return nil, err
	}
	tables.m[key] = t
	return t, nil
}

// subChain returns the per-step up and down probabilities of the LCR chain
// for key and the number m of steps per slot: 1 when every state has
// p_up + p_down ≤ 1 over a whole slot, else ⌊max(p_up + p_down)⌋ + 1, with
// the probabilities taken over the sub-slot T_slot/m. The chain is
// scale-invariant in its mean, so it is built at γ̄ = 1.
func subChain(key tableKey) (up, down []float64, m int) {
	k := key.states
	thr := thresholds(1, k)
	pi := 1.0 / float64(k)
	lcr := func(g float64) float64 {
		if g <= 0 || math.IsInf(g, 1) {
			return 0
		}
		return math.Sqrt(2*math.Pi*g) * key.dopplerHz * math.Exp(-g)
	}
	up = make([]float64, k)
	down = make([]float64, k)
	worst := 0.0
	for s := 0; s < k; s++ {
		up[s] = lcr(thr[s+1]) * key.slotSec / pi
		down[s] = lcr(thr[s]) * key.slotSec / pi
		worst = math.Max(worst, up[s]+down[s])
	}
	m = 1
	if worst > 1 {
		m = int(worst) + 1
		for s := range up {
			up[s] /= float64(m)
			down[s] /= float64(m)
		}
	}
	return up, down, m
}

// buildTable walks the rows of Pⁿ slot by slot twice: once to find the
// mixing horizon N (and so S), and once to record the fine and coarse rows.
func buildTable(key tableKey) (*nstepTable, error) {
	up, down, m := subChain(key)
	k := key.states
	w := newWalker(up, down, m)
	var mix int64
	for !w.mixed() {
		if mix == maxMixSlots {
			return nil, fmt.Errorf("radio: fading chain (fd=%v Hz, slot=%v s, K=%d) does not mix within %d slots",
				key.dopplerHz, key.slotSec, k, maxMixSlots)
		}
		w.slot()
		mix++
	}
	t := &nstepTable{k: k, sub: m, mix: mix, shift: uint(math.Round(math.Log2(float64(mix)) / 2))}
	span := int64(1) << t.shift
	w = newWalker(up, down, m)
	for n := int64(1); n < mix; n++ {
		w.slot()
		switch {
		case n < span:
			t.fine = w.appendCDF(t.fine)
		case n%span == 0:
			t.coarse = w.appendCDF(t.coarse)
		}
	}
	return t, nil
}

// walker holds the K×K matrix Pⁿ, row-major, and steps it one slot at a
// time by right-multiplying with the tridiagonal sub-step matrix m times.
// Every product is rounded explicitly (float64(a*b)) so that no platform can
// fuse it into a multiply-add: the tables, and every draw made from them,
// are then the same on every architecture.
type walker struct {
	k              int
	m              int
	up, down, stay []float64
	cur, nxt       []float64
}

func newWalker(up, down []float64, m int) *walker {
	k := len(up)
	w := &walker{k: k, m: m, up: up, down: down, stay: make([]float64, k),
		cur: make([]float64, k*k), nxt: make([]float64, k*k)}
	for s := 0; s < k; s++ {
		w.stay[s] = 1 - up[s] - down[s]
		w.cur[s*k+s] = 1
	}
	return w
}

// slot advances every row by one slot. Rounding leaks row mass at ~1e-16 a
// step, which on slow chains would pile up past mixTV before the chain mixed;
// the rows are renormalized after every slot.
func (w *walker) slot() {
	k := w.k
	for range w.m {
		for i := 0; i < k; i++ {
			row, out := w.cur[i*k:(i+1)*k], w.nxt[i*k:(i+1)*k]
			for j := range out {
				v := float64(row[j] * w.stay[j])
				if j > 0 {
					v += float64(row[j-1] * w.up[j-1])
				}
				if j < k-1 {
					v += float64(row[j+1] * w.down[j+1])
				}
				out[j] = v
			}
		}
		w.cur, w.nxt = w.nxt, w.cur
	}
	for i := 0; i < k; i++ {
		row := w.cur[i*k : (i+1)*k]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// mixed reports whether every row is within mixTV of uniform in total
// variation.
func (w *walker) mixed() bool {
	u := 1 / float64(w.k)
	for i := 0; i < w.k; i++ {
		tv := 0.0
		for _, v := range w.cur[i*w.k : (i+1)*w.k] {
			tv += math.Abs(v - u)
		}
		if tv/2 > mixTV {
			return false
		}
	}
	return true
}

// appendCDF appends every row's CDF to dst: non-decreasing, capped at 1, and
// ending at exactly 1.
func (w *walker) appendCDF(dst []float64) []float64 {
	for i := 0; i < w.k; i++ {
		acc := 0.0
		for _, v := range w.cur[i*w.k : (i+1)*w.k-1] {
			acc = math.Min(acc+v, 1)
			dst = append(dst, acc)
		}
		dst = append(dst, 1)
	}
	return dst
}
