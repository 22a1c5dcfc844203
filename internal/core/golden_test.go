package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/des"
)

// goldenConfig is a small but fully featured run: sleeping clients (so the
// awake roster is exercised through doze/wake churn), response snooping and
// coalescing (the O(awake) fan-out paths), and enough horizon for report
// cycles, ARQ and cache pressure to all occur.
func goldenConfig(algo string, seed uint64) Config {
	cfg := DefaultConfig()
	cfg.NumClients = 30
	cfg.Horizon = 600 * des.Second
	cfg.Warmup = 120 * des.Second
	cfg.Seed = seed
	cfg.Algorithm = algo
	cfg.Workload.SleepRatio = 0.4
	cfg.Workload.AwakeMeanSec = 60
	cfg.SnoopResponses = true
	cfg.CoalesceResponses = true
	return cfg
}

// goldenRuns pins the full statistics of six runs. Optimizations such as the
// awake roster, frame/report free lists, decode memoization and the
// replication arena must not change what the simulator computes — only how
// fast — so every run must keep reproducing these fingerprints byte for
// byte. If an intentional semantic change lands, recapture with
// fingerprintStats and update; the last recapture followed the switch from
// the per-slot fading walk to exact n-step fading tables.
var goldenRuns = []struct {
	algo string
	seed uint64
	want string
}{
	{"ts", 7, "q=844 ans=800 hit=165 miss=635 d=14.597918773750017 ci=6.221070591523652 p95=21.948758049625926 max=225.622078 stale=0 drops=60 sig=0 fi=0 rd=552 rl=31 via=[443 0 0] up=680 att=2529 col=557 airIR=0.14745599999999992 airR=23.29238599999986 airBG=213.8498579999992 util=0.4943535416666647 ir=15792 pig=0 rtry=1525 drop=186 e=8084.434190817778 upd=99 pend=44"},
	{"ts", 42, "q=747 ans=728 hit=154 miss=574 d=10.753022284340663 ci=0.6826139957970441 p95=21.948758049625926 max=60.87654 stale=0 drops=58 sig=0 fi=0 rd=529 rl=15 via=[424 0 0] up=609 att=2230 col=504 airIR=0.13363199999999995 airR=18.262821999999904 airBG=189.8627549999998 util=0.43387335208333266 ir=14064 pig=0 rtry=1070 drop=53 e=7754.15390954 upd=93 pend=19"},
	{"hybrid", 7, "q=868 ans=861 hit=150 miss=711 d=3.3063658838559813 ci=1.2970908642340275 p95=19.08587656489211 max=76.016921 stale=0 drops=82 sig=0 fi=0 rd=20347 rl=1200 via=[405 873 10446] up=749 att=1082 col=129 airIR=0.25762300000000005 airR=33.38367300000077 airBG=216.68613199999965 util=0.5215154750000008 ir=31520 pig=143264 rtry=1601 drop=202 e=7597.638684664445 upd=99 pend=7"},
	{"hybrid", 42, "q=849 ans=847 hit=192 miss=655 d=2.059154170011805 ci=0.8532079367700011 p95=12.549273651609838 max=60.371507 stale=0 drops=73 sig=0 fi=0 rd=20776 rl=734 via=[493 957 11703] up=668 att=861 col=76 airIR=0.2547180000000004 airR=20.313383999999882 airBG=204.4094609999996 util=0.46870325624999887 ir=29040 pig=136704 rtry=1198 drop=58 e=7778.255330493332 upd=93 pend=2"},
	{"sig", 7, "q=885 ans=837 hit=201 miss=636 d=12.68184620908004 ci=1.6013120454570762 p95=29.027232520630285 max=84.853486 stale=0 drops=0 sig=0 fi=878 rd=550 rl=54 via=[442 0 0] up=708 att=2487 col=534 airIR=1.6435200000000012 airR=29.949887000000295 airBG=215.99592199999944 util=0.5158111020833328 ir=210800 pig=0 rtry=1551 drop=193 e=8162.666370182221 upd=99 pend=48"},
	{"sig", 42, "q=769 ans=747 hit=215 miss=532 d=11.407694575635874 ci=0.620668483494815 p95=21.948758049625926 max=55.100526 stale=0 drops=0 sig=1 fi=862 rd=530 rl=25 via=[427 0 0] up=569 att=1906 col=426 airIR=1.6435200000000012 airR=17.68651099999993 airBG=194.49711699999904 util=0.44547322499999786 ir=210800 pig=0 rtry=1092 drop=49 e=7719.137174200001 upd=93 pend=22"},
}

// fingerprintStats formats every deterministic RunStats field (perf telemetry
// excluded) so any behavioural divergence shows up byte-for-byte.
func fingerprintStats(r *RunStats) string {
	return fmt.Sprintf("q=%d ans=%d hit=%d miss=%d d=%v ci=%v p95=%v max=%v stale=%d drops=%d sig=%d fi=%d rd=%d rl=%d via=%v up=%d att=%d col=%d airIR=%v airR=%v airBG=%v util=%v ir=%d pig=%d rtry=%d drop=%d e=%v upd=%d pend=%d",
		r.Queries, r.Answered, r.CacheHits, r.MissAnswers,
		r.MeanDelay, r.DelayCI95, r.P95Delay, r.MaxDelay,
		r.StaleViolations, r.CacheDrops, r.SigDrops, r.FalseInval,
		r.ReportsDecoded, r.ReportsLost, r.AnsweredVia,
		r.UplinkSent, r.UplinkAttempts, r.UplinkCollisions,
		r.AirtimeIR, r.AirtimeResponse, r.AirtimeBackground, r.DownlinkUtil,
		r.IRBits, r.PiggyBits, r.ResponseRetries, r.ResponseDrops,
		r.EnergyJoules, r.Updates, r.PendingAtEnd)
}

// TestGoldenDeterminism replays the pinned runs cold and compares every
// statistic byte for byte.
func TestGoldenDeterminism(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(fmt.Sprintf("%s-%d", g.algo, g.seed), func(t *testing.T) {
			r, err := Run(goldenConfig(g.algo, g.seed))
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintStats(r); got != g.want {
				t.Errorf("fingerprint diverged\n got: %s\nwant: %s", got, g.want)
			}
		})
	}
}

// TestArenaRecycledRunMatchesCold proves that a simulation built from
// recycled component state — caches, database and channel reclaimed from
// earlier runs with different algorithms and seeds — is bit-identical to a
// cold one: the arena changes where memory comes from, never what runs.
func TestArenaRecycledRunMatchesCold(t *testing.T) {
	ctx := context.Background()
	arena := NewArena()
	// Dirty the arena with runs whose caches, update histories and fading
	// trajectories all differ from the run under test.
	for _, warmup := range []Config{goldenConfig("hybrid", 3), goldenConfig("sig", 11)} {
		warmup.Horizon = 200 * des.Second
		warmup.Warmup = 50 * des.Second
		if _, err := RunRepArena(ctx, warmup, 0, arena); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenRuns[:2] { // both ts seeds: cheap and roster-heavy
		warm, err := RunRepArena(ctx, goldenConfig(g.algo, g.seed), 0, arena)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintStats(warm); got != g.want {
			t.Errorf("%s-%d: recycled run diverged from cold\n got: %s\nwant: %s",
				g.algo, g.seed, got, g.want)
		}
	}
}
