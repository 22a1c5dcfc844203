package serve

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/ir"
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
