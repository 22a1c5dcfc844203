package conformance

import (
	"os"
	"testing"
	"time"

	"repro/internal/ir"
)

func steps(t *testing.T) int {
	if testing.Short() {
		return 40
	}
	return 150
}

// TestConformanceAllAlgorithms runs the lock-step oracle over every scheme:
// the served engine must produce byte-identical report streams, answers,
// digests and catch-ups to the in-process model, and the harness clients
// riding the broadcast plane must never hold a stale entry. Setting
// WDCSERVED_BIN to a built wdcserved binary runs the same protocol against
// a real subprocess over real sockets.
func TestConformanceAllAlgorithms(t *testing.T) {
	bin := os.Getenv("WDCSERVED_BIN")
	for _, algo := range ir.Names {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Algo:    algo,
				Seed:    0xC0FFEE,
				Steps:   steps(t),
				Clients: 4,
				Bin:     bin,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stale != 0 {
				t.Fatalf("stale-answer violations: %d (result %+v)", res.Stale, res)
			}
			// Guard against a vacuous pass: the schedule must actually have
			// exercised the planes.
			if res.Broadcasts == 0 {
				t.Fatalf("no broadcasts compared: %+v", res)
			}
			if res.Queries == 0 || res.Injects == 0 || res.Catchups == 0 {
				t.Fatalf("schedule did not cover all ops: %+v", res)
			}
			t.Logf("%s: %+v", algo, res)
		})
	}
}

// TestConformanceChaos degrades the client side — lost and truncated
// datagrams, stalled query frames cut by the server's IO deadline and
// retried with bounded backoff — and asserts the protocol still never
// leaves a stale entry in any cache. The server-side byte comparison stays
// exact throughout: chaos happens to the traffic, not to the engine.
// WDCSERVED_BIN runs it against a spawned binary, as above.
func TestConformanceChaos(t *testing.T) {
	bin := os.Getenv("WDCSERVED_BIN")
	for _, algo := range []string{"ts", "uir", "sig", "hybrid"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{
				Algo:      algo,
				Seed:      7,
				Steps:     steps(t) / 2,
				Clients:   3,
				Bin:       bin,
				IOTimeout: 150 * time.Millisecond,
				Chaos: &Chaos{
					ReportLossProb:  0.15,
					ReportTruncProb: 0.10,
					TimeoutProb:     0.08,
					RetryBase:       time.Millisecond,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stale != 0 {
				t.Fatalf("stale-answer violations under chaos: %d (result %+v)", res.Stale, res)
			}
			if res.Lost == 0 && res.Truncated == 0 {
				t.Fatalf("chaos drew no faults — probabilities or schedule broken: %+v", res)
			}
			t.Logf("%s: %+v", algo, res)
		})
	}
}
