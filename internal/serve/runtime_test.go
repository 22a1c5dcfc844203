package serve

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/rng"
	"repro/internal/serve/capabilities"
)

// TestCatchupSinceBounds drives ir.CatchupReport's window edges on a runtime
// whose clock is past the database's retention. A since the database can
// answer gets its window; one older than the retention, later than the
// clock, or so far back that now - since would overflow gets the empty
// now-anchored report that makes the client drop everything. None panics.
func TestCatchupSinceBounds(t *testing.T) {
	rt, err := NewRuntime(DefaultRuntimeConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ret := rt.db.Config().Retention
	for _, u := range []struct {
		at   des.Time
		item int
	}{{des.Time(des.Minute), 3}, {des.Time(8 * des.Minute), 4}, {des.Time(15 * des.Minute), 5}} {
		if _, err := rt.AdvanceTo(u.at); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Inject(u.item); err != nil {
			t.Fatal(err)
		}
	}
	now := rt.Now()
	edge := now.Add(-ret)
	cases := []struct {
		name      string
		since     des.Time
		wantStart des.Time
		wantItems []int
	}{
		{"inside retention", des.Time(10 * des.Minute), des.Time(10 * des.Minute), []int{5}},
		{"exactly at retention", edge, edge, []int{4, 5}},
		{"older than retention", edge - 1, now, nil},
		{"future", now + 1, now, nil},
		{"overflowing", des.Time(math.MinInt64), now, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := ir.CatchupReport(rt, tc.since, ret)
			if r.At != now || r.WindowStart != tc.wantStart {
				t.Fatalf("report at %v window start %v, want at %v start %v", r.At, r.WindowStart, now, tc.wantStart)
			}
			got := map[int]bool{}
			for _, u := range r.Items {
				got[u.ID] = true
			}
			if len(got) != len(tc.wantItems) {
				t.Fatalf("items %+v, want ids %v", r.Items, tc.wantItems)
			}
			for _, id := range tc.wantItems {
				if !got[id] {
					t.Fatalf("items %+v lack id %d", r.Items, id)
				}
			}
		})
	}
}

// TestCatchupMemoMatchesReport drives a virtual-clock runtime of every
// scheme through a seeded random schedule of advances (small steps, jumps
// past the retention, and steps onto the next scheduled event, a report
// tick or a database update), injected updates and query-plane catch-ups,
// often several on one microsecond. Every catch-up frame the query plane
// answers from its memo must equal the frame of the plain report,
// ir.CatchupReport, byte for byte, or the past-clock error frame. The
// catch-ups ask since a recent update's time, the memo's since, now and
// now - retention, each also ±1 µs, plus random, ancient and future
// points; and the memo must list the database afresh exactly when the
// version changed or the since is earlier than the one it holds.
func TestCatchupMemoMatchesReport(t *testing.T) {
	for _, algo := range ir.Names {
		t.Run(algo, func(t *testing.T) {
			rc := DefaultRuntimeConfig()
			rc.Algo = algo
			rc.DB.NumItems, rc.DB.HotItems, rc.DB.UpdateRate = 64, 8, 1
			rc.IR.NumItems = rc.DB.NumItems
			rt, err := NewRuntime(rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			rt.Start()
			ret := rc.DB.Retention
			src := rng.Stream(21, algo)

			// The memo as the test expects it: the version and since it
			// was last listed at, and how many times it was listed.
			var memoVersion, builds uint64
			var memoSince des.Time
			recent := []des.Time{0}
			prefix := []byte{0xde, 0xad}
			catchups := 0
			for op := 0; op < 20_000; op++ {
				now := rt.Now()
				switch r := src.Float64(); {
				case r < 0.15:
					_, err = rt.AdvanceTo(now.Add(des.Duration(src.Intn(3000))))
				case r < 0.2:
					if at, ok := rt.sch.NextAt(); ok {
						_, err = rt.AdvanceTo(at)
					}
				case r < 0.22:
					_, err = rt.AdvanceTo(now.Add(ret/2 + des.Duration(src.Intn(int(ret)))))
				case r < 0.45:
					item := src.Intn(rc.DB.NumItems)
					if src.Bool(0.8) {
						item = src.Intn(rc.DB.HotItems)
					}
					var ans capabilities.Answer
					ans, err = rt.Inject(item)
					recent = append(recent, ans.AsOf)
				default:
					var since des.Time
					switch r := src.Float64(); {
					case r < 0.8:
						edges := []des.Time{recent[len(recent)-1-src.Intn(min(len(recent), 4))],
							rt.DBItem(src.Intn(rc.DB.NumItems)).UpdatedAt, memoSince, now, now.Add(-ret)}
						since = edges[src.Intn(len(edges))] + des.Time(src.Intn(3)-1)
					case r < 0.9:
						since = now.Add(-des.Duration(src.Intn(int(ret))))
					case r < 0.95:
						since = des.Time(src.Intn(int(now) + 1))
					default:
						since = []des.Time{now + 1, now.Add(des.Minute), des.Time(math.MaxInt64), des.Time(math.MinInt64), -1}[src.Intn(5)]
					}
					got, err := rt.appendResponse(prefix, OpCatchup, EncodeCatchup(since))
					if err != nil {
						t.Fatal(err)
					}
					var want []byte
					if perr := rt.checkSince(since); perr != nil {
						want = appendErrorFrame(nil, perr)
					} else {
						catchups++
						want = appendReportFrame(nil, ir.CatchupReport(rt, since, ret))
						if since >= now.Add(-ret) && (builds == 0 || rt.db.Updates() != memoVersion || since < memoSince) {
							memoVersion, memoSince = rt.db.Updates(), since
							builds++
						}
					}
					if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
						t.Fatalf("op %d: catch-up since %v at %v (version %d, memo since %v):\n got %x\nwant %x",
							op, since, now, rt.db.Updates(), memoSince, got[len(prefix):], want)
					}
					if st := rt.Status(); st.Catchups != uint64(catchups) || st.CatchupBuilds != builds {
						t.Fatalf("op %d: status counts %d catch-ups and %d builds, want %d and %d",
							op, st.Catchups, st.CatchupBuilds, catchups, builds)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			t.Logf("%d catch-up reports, %d memo builds, clock %v", catchups, builds, rt.Now())
		})
	}
}
