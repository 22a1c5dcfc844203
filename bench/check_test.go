package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/des"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/serve/capabilities"
)

func TestVersionCheck(t *testing.T) {
	type obs struct {
		item  int
		ver   uint64
		floor uint64
	}
	ans := func(o obs) capabilities.Answer { return capabilities.Answer{Item: o.item, Version: o.ver} }
	cases := []struct {
		name    string
		seq     []obs
		wantErr string // substring of the first error; empty for none
	}{
		{"monotone", []obs{{1, 0, 0}, {1, 1, 0}, {1, 1, 1}, {2, 5, 4}}, ""},
		{"items independent", []obs{{1, 3, 0}, {2, 1, 0}}, ""},
		{"version goes back", []obs{{1, 2, 0}, {1, 1, 0}}, "went back"},
		{"read your write", []obs{{1, 2, 3}}, "after an update returned 3"},
		{"floor after older answer", []obs{{1, 1, 0}, {1, 1, 2}}, "after an update returned 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewVersionCheck()
			var err error
			for _, o := range tc.seq {
				if err = c.Observe(ans(o), o.floor); err != nil {
					break
				}
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestCheckEcho(t *testing.T) {
	if err := CheckEcho(7, capabilities.Answer{Item: 7}); err != nil {
		t.Fatal(err)
	}
	if err := CheckEcho(7, capabilities.Answer{Item: 8}); err == nil {
		t.Fatal("answer for another item accepted")
	}
}

func TestCheckDatagramAndReport(t *testing.T) {
	good := &ir.Report{Kind: ir.KindFull, Seq: 3, At: 2000, PrevAt: 1000, WindowStart: 500,
		Items: []db.Update{{ID: 4, At: 900}, {ID: 9, At: 1500}}}
	badWindow := &ir.Report{Kind: ir.KindFull, At: 1000, WindowStart: 2000}
	outside := &ir.Report{Kind: ir.KindMini, At: 2000, WindowStart: 1000, Items: []db.Update{{ID: 1, At: 500}}}
	dg := serve.EncodeDatagram(2, good)
	cases := []struct {
		name string
		data []byte
		dg   bool // datagram (mcs prefix) or report frame
		ok   bool
	}{
		{"datagram", dg, true, true},
		{"report frame", good.Marshal(), false, true},
		{"empty datagram", nil, true, false},
		{"truncated datagram", dg[:len(dg)-3], true, false},
		{"trailing bytes", append(good.Marshal(), 0), false, false},
		{"window after report time", serve.EncodeDatagram(0, badWindow), true, false},
		{"item outside window", outside.Marshal(), false, false},
	}
	var into ir.Report
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.dg {
				err = CheckDatagram(tc.data, &into)
			} else {
				err = CheckReport(tc.data, &into)
			}
			if (err == nil) != tc.ok {
				t.Fatalf("error %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestFingerprint(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Horizon = 10 * des.Minute
	st, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Fingerprint(st)
	if err != nil {
		t.Fatal(err)
	}
	host := *st
	host.WallSec, host.EventsPerSec, host.HeapAllocBytes, host.ParallelWorkers = 99, 1, 2, 8
	if fp, _ := Fingerprint(&host); fp != base {
		t.Fatalf("host-run fields changed the fingerprint: %s vs %s", fp, base)
	}
	for name, mutate := range map[string]func(*core.RunStats){
		"queries": func(r *core.RunStats) { r.Queries++ },
		"stale":   func(r *core.RunStats) { r.StaleViolations++ },
		"events":  func(r *core.RunStats) { r.Events++ },
		"delay":   func(r *core.RunStats) { r.MeanDelay *= 1.0001 },
	} {
		sim := *st
		mutate(&sim)
		if fp, _ := Fingerprint(&sim); fp == base {
			t.Errorf("changing %s left the fingerprint unchanged", name)
		}
	}
}

func TestCheckSameReplication(t *testing.T) {
	a := RepResult{Events: 10, Epochs: 3, Fingerprint: "ab"}
	if err := CheckSameReplication("same", a, a); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]RepResult{
		"events":      {Events: 11, Epochs: 3, Fingerprint: "ab"},
		"epochs":      {Events: 10, Epochs: 4, Fingerprint: "ab"},
		"fingerprint": {Events: 10, Epochs: 3, Fingerprint: "ac"},
	} {
		if err := CheckSameReplication(name, a, b); err == nil {
			t.Errorf("%s differs but the check passed", name)
		}
	}
}

func TestCheckStaleAndBroadcasts(t *testing.T) {
	if err := CheckStale(RepResult{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckStale(RepResult{Stale: 1}); err == nil {
		t.Fatal("a stale answer passed")
	}
	if err := CheckBroadcasts(45, 10, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := CheckBroadcasts(44, 10, 0.2); err == nil {
		t.Fatal("a silent broadcast plane passed")
	}
}

// A failed check makes the result incorrect, and the summary line says so.
func TestFailedCheckMarksResult(t *testing.T) {
	r := &Result{Workload: "w", Attempted: 1, EndToEnd: []Metric{{Name: "m", Unit: "s", Value: 1}}}
	r.fail("boom %d", 1)
	if r.Correct() {
		t.Fatal("result with a failure reads correct")
	}
	line, err := r.ResultLine(false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"correct":false`) {
		t.Fatalf("summary %s does not report the failure", line)
	}
}
