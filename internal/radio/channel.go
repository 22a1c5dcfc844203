package radio

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/mobility"
	"repro/internal/rng"
)

// Params configures the downlink channel population.
type Params struct {
	// Geometry mode (UseGeometry true): clients are dropped uniformly in an
	// annulus [MinDistanceM, CellRadiusM] and their mean SNR follows from
	// the log-distance path-loss law plus lognormal shadowing.
	UseGeometry  bool
	TxPowerDBm   float64
	NoiseDBm     float64
	RefLossDB    float64 // path loss at 1 m
	PathLossExp  float64
	CellRadiusM  float64
	MinDistanceM float64

	// SNR mode (UseGeometry false): every client's mean SNR is MeanSNRdB
	// plus a per-client lognormal shadowing offset. This is the mode the
	// F6/F7 sweeps use, because it makes "mean SNR" a single knob.
	MeanSNRdB float64

	// Mobility, when non-nil, moves clients per the random-waypoint model
	// so their path loss (and hence mean SNR) drifts over time. Requires
	// UseGeometry. Shadowing stays fixed per client (no spatially
	// correlated shadowing), which is the usual simplification.
	Mobility *mobility.Config

	ShadowSigmaDB float64

	// Fast fading.
	DopplerHz    float64
	FadingSlot   des.Duration
	FadingStates int
}

// DefaultParams returns the channel configuration used by the default
// experiment matrix: SNR mode at 18 dB mean, 6 dB shadowing, pedestrian
// Doppler.
func DefaultParams() Params {
	return Params{
		UseGeometry:   false,
		TxPowerDBm:    40,
		NoiseDBm:      -113,
		RefLossDB:     38,
		PathLossExp:   3.5,
		CellRadiusM:   500,
		MinDistanceM:  20,
		MeanSNRdB:     18,
		ShadowSigmaDB: 6,
		DopplerHz:     6, // ~3 km/h at 2 GHz
		FadingSlot:    2 * des.Millisecond,
		FadingStates:  8,
	}
}

// Locator supplies externally owned client positions as distances to this
// channel's base station, for deployments (multi-cell grids) where placement
// and motion live outside the radio layer. Queries are non-decreasing in t
// per client, like every other time-indexed channel access.
type Locator interface {
	DistanceM(i int, t des.Time) float64
}

// Channel is the population of downlink links from the base station to each
// client. All methods must be called from the simulation goroutine.
//
// Per-link state is struct-of-arrays keyed by client id: a link's steady
// state is one int32, one int64, a 32-byte inline rng source and three
// float64s spread across flat slices, with no per-link heap objects. Every
// link shares one fading chain built around a 0 dB mean: the Rayleigh FSMC
// is scale-invariant in its mean, so link i's SNR is the chain's
// representative value for its state plus the link's own mean, and its
// transition law is the shared n-step table either way. Static mode (means
// fixed per link) adds a flattened decode memo. The layout is what lets a
// multi-cell city-scale replication hold cells×clients links in a few
// hundred megabytes.
type Channel struct {
	params Params
	amc    *AMC
	n      int

	// Per-link state, all length n.
	state    []int32
	lastSlot []int64
	srcs     []rng.Source
	meanDB   []float64 // static mean SNR (initial position under mobility)
	shadowDB []float64
	distM    []float64

	// fsmc is the fading chain every link shares, in its 0 dB offset form.
	fsmc *FSMC

	// logSurv memoizes the per-bit log survival log1p(−BER) per (link, mcs,
	// state), flattened to one slice with stride lStride per link; NaN marks
	// an empty slot (0 is a real value once the BER underflows). Without
	// mobility a link's instantaneous SNR takes only K discrete values (one
	// per fading state), so the exp/pow chain behind the BER is worth
	// computing once, and a decode of any frame size then costs one
	// exp(bits·L) — the same arithmetic as MCS.FrameSuccessProb. Nil in
	// drifting mode, where the SNR drifts continuously.
	logSurv []float64
	lStride int

	snrBuf []float64
	mob    *mobility.Model
	loc    Locator
}

// New builds a channel with n client links. The source seeds one independent
// fading stream per client; the same (seed, n, params) triple always yields
// the same channel realization.
func New(p Params, amc *AMC, n int, src *rng.Source) (*Channel, error) {
	return NewWithLocator(p, amc, n, src, nil)
}

// NewWithLocator is New with client distances supplied by an external
// locator instead of the channel's own placement or mobility model. A
// non-nil locator requires geometry mode and excludes Params.Mobility; like
// mobility, it makes each link's mean SNR drift, so the decode memoization is
// disabled. A nil locator is exactly New.
func NewWithLocator(p Params, amc *AMC, n int, src *rng.Source, loc Locator) (*Channel, error) {
	c := &Channel{}
	if err := c.init(p, amc, n, src, loc); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the channel in place for a new replication, reusing
// the per-link tables (link array, SNR buffer, decode memo) when the
// population shape is unchanged. The channel realization drawn from src is
// identical to what New would produce: Reset makes exactly the same draws in
// the same order.
func (c *Channel) Reset(p Params, amc *AMC, n int, src *rng.Source) error {
	return c.init(p, amc, n, src, nil)
}

// ResetWithLocator is Reset for a channel driven by an external locator; it
// makes the same draws NewWithLocator would.
func (c *Channel) ResetWithLocator(p Params, amc *AMC, n int, src *rng.Source, loc Locator) error {
	return c.init(p, amc, n, src, loc)
}

// init builds the channel state in place, reusing any backing slices of the
// right shape that c already holds.
func (c *Channel) init(p Params, amc *AMC, n int, src *rng.Source, loc Locator) error {
	if n <= 0 {
		return fmt.Errorf("radio: need at least one client, got %d", n)
	}
	if amc == nil {
		amc = DefaultAMC()
	}
	if err := amc.Validate(); err != nil {
		return err
	}
	if p.FadingSlot <= 0 || p.FadingStates < 2 || p.DopplerHz <= 0 {
		return fmt.Errorf("radio: invalid fading params (slot=%v states=%d fd=%v)",
			p.FadingSlot, p.FadingStates, p.DopplerHz)
	}
	if p.Mobility != nil && !p.UseGeometry {
		return fmt.Errorf("radio: mobility requires geometry mode")
	}
	if loc != nil && p.Mobility != nil {
		return fmt.Errorf("radio: locator and mobility are mutually exclusive")
	}
	if loc != nil && !p.UseGeometry {
		return fmt.Errorf("radio: locator requires geometry mode")
	}
	c.params = p
	c.amc = amc
	c.mob = nil
	c.loc = loc
	if c.n != n {
		c.n = n
		c.state = make([]int32, n)
		c.lastSlot = make([]int64, n)
		c.srcs = make([]rng.Source, n)
		c.meanDB = make([]float64, n)
		c.shadowDB = make([]float64, n)
		c.distM = make([]float64, n)
		c.snrBuf = make([]float64, n)
	} else {
		for i := 0; i < n; i++ {
			c.lastSlot[i] = 0
			c.distM[i] = 0
		}
	}
	if p.Mobility != nil {
		mob, err := mobility.New(*p.Mobility, n, src.SubStream(1<<32))
		if err != nil {
			return err
		}
		c.mob = mob
	}

	// One chain around 0 dB serves every link; each link's (static or
	// drifting) mean is added per query. The offset form is exact because the
	// Rayleigh FSMC is scale-invariant in its mean.
	fsmc, err := NewFSMC(0, p.DopplerHz, p.FadingSlot.Seconds(), p.FadingStates)
	if err != nil {
		return err
	}
	c.fsmc = fsmc

	c.lStride = 0
	if !c.drifting() {
		c.lStride = len(amc.Table) * p.FadingStates
	}
	if total := n * c.lStride; total > 0 {
		if len(c.logSurv) != total {
			c.logSurv = make([]float64, total)
		}
		for j := range c.logSurv {
			c.logSurv[j] = math.NaN()
		}
	} else {
		c.logSurv = nil
	}

	placement := src.SubStream(0)
	for i := 0; i < n; i++ {
		c.srcs[i] = src.SubStreamValue(uint64(i) + 1)
		c.shadowDB[i] = placement.Normal(0, p.ShadowSigmaDB)
		if p.UseGeometry {
			switch {
			case c.mob != nil:
				c.distM[i] = c.mob.DistanceM(i, 0)
			case c.loc != nil:
				c.distM[i] = c.loc.DistanceM(i, 0)
			default:
				// Uniform over the annulus area.
				r2min := p.MinDistanceM * p.MinDistanceM
				r2max := p.CellRadiusM * p.CellRadiusM
				c.distM[i] = math.Sqrt(placement.Uniform(r2min, r2max))
			}
			c.meanDB[i] = c.geoMeanDB(c.distM[i], c.shadowDB[i])
		} else {
			c.meanDB[i] = p.MeanSNRdB + c.shadowDB[i]
		}
		c.state[i] = int32(fsmc.StationarySample(&c.srcs[i]))
	}
	return nil
}

// drifting reports whether link means move over time (mobility model or
// external locator), which disables the per-state decode memoization.
func (c *Channel) drifting() bool { return c.mob != nil || c.loc != nil }

// N reports the number of client links.
func (c *Channel) N() int { return c.n }

// AMC reports the link adaptation policy in force.
func (c *Channel) AMC() *AMC { return c.amc }

// geoMeanDB computes the mean SNR at a distance with a fixed shadowing
// offset.
func (c *Channel) geoMeanDB(distM, shadowDB float64) float64 {
	p := c.params
	pl := p.RefLossDB + 10*p.PathLossExp*math.Log10(distM)
	return p.TxPowerDBm - pl - shadowDB - p.NoiseDBm
}

// MeanSNRdB reports client i's long-term average SNR (under mobility, the
// mean at its initial position).
func (c *Channel) MeanSNRdB(i int) float64 { return c.meanDB[i] }

// MeanSNRdBAt reports client i's instantaneous mean SNR (path loss plus
// shadowing, fading excluded) at time t.
func (c *Channel) MeanSNRdBAt(i int, t des.Time) float64 {
	switch {
	case c.mob != nil:
		return c.geoMeanDB(c.mob.DistanceM(i, t), c.shadowDB[i])
	case c.loc != nil:
		return c.geoMeanDB(c.loc.DistanceM(i, t), c.shadowDB[i])
	}
	return c.meanDB[i]
}

// DistanceM reports client i's distance from the base station (geometry mode
// only; zero otherwise). Under mobility this is the initial distance; use
// DistanceMAt for the live value.
func (c *Channel) DistanceM(i int) float64 { return c.distM[i] }

// DistanceMAt reports client i's distance at time t.
func (c *Channel) DistanceMAt(i int, t des.Time) float64 {
	switch {
	case c.mob != nil:
		return c.mob.DistanceM(i, t)
	case c.loc != nil:
		return c.loc.DistanceM(i, t)
	}
	return c.distM[i]
}

// advance brings link i's fading state up to the slot containing `now` and
// reports it.
func (c *Channel) advance(i int, now des.Time) int {
	slot := int64(now) / int64(c.params.FadingSlot)
	if slot > c.lastSlot[i] {
		c.state[i] = int32(c.fsmc.Advance(int(c.state[i]), slot-c.lastSlot[i], &c.srcs[i]))
		c.lastSlot[i] = slot
	}
	return int(c.state[i])
}

// SNRdB reports client i's instantaneous SNR at time now.
func (c *Channel) SNRdB(i int, now des.Time) float64 {
	st := c.advance(i, now)
	return c.fsmc.RepSNRdB(st) + c.MeanSNRdBAt(i, now)
}

// Snapshot fills and returns a reused buffer with every client's
// instantaneous SNR at time now. The buffer is valid until the next call.
func (c *Channel) Snapshot(now des.Time) []float64 {
	for i := 0; i < c.n; i++ {
		c.snrBuf[i] = c.SNRdB(i, now)
	}
	return c.snrBuf
}

// SelectMCS runs link adaptation for a unicast frame to client i at time
// now: the fastest scheme supported by the instantaneous SNR, falling back
// to the most robust scheme when the link is in a deep fade.
func (c *Channel) SelectMCS(i int, now des.Time) (idx int, snrDB float64) {
	snrDB = c.SNRdB(i, now)
	idx, _ = c.amc.Select(snrDB)
	return idx, snrDB
}

// Decode draws whether client i successfully decodes a frame of `bits`
// information bits sent at MCS index mcs, given its channel state at `now`.
func (c *Channel) Decode(i int, now des.Time, mcs int, bits int) bool {
	st := c.advance(i, now)
	if c.logSurv != nil {
		l := &c.logSurv[i*c.lStride+mcs*c.params.FadingStates+st]
		if math.IsNaN(*l) {
			*l = math.Log1p(-c.amc.Table[mcs].BER(c.fsmc.RepSNRdB(st) + c.meanDB[i]))
		}
		return c.srcs[i].Bool(math.Exp(float64(bits) * *l))
	}
	snr := c.fsmc.RepSNRdB(st) + c.MeanSNRdBAt(i, now)
	p := c.amc.Table[mcs].FrameSuccessProb(snr, bits)
	return c.srcs[i].Bool(p)
}
