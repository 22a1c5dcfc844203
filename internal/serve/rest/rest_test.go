package rest_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/serve/rest"
)

func newTestPlane(t *testing.T, algo string) (*serve.Server, *httptest.Server) {
	t.Helper()
	rc := serve.DefaultRuntimeConfig()
	rc.Algo = algo
	rc.DB.NumItems = 32
	rc.DB.HotItems = 8
	rc.IR.NumItems = rc.DB.NumItems
	srv, err := serve.NewServer(serve.Options{Runtime: rc})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(rest.Handler(srv))
	t.Cleanup(func() { hs.Close(); srv.Shutdown() })
	return srv, hs
}

func postJSON(t *testing.T, url string, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s: %v in %s", url, err, data)
		}
	}
	return resp
}

func TestControlPlaneRoundTrip(t *testing.T) {
	_, hs := newTestPlane(t, "hybrid")

	var st serve.Status
	resp, err := http.Get(hs.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Algo != "hybrid" {
		t.Fatalf("algo %q", st.Algo)
	}

	// Update injection bumps the item version; signals and advance succeed.
	var ans struct {
		Item    int    `json:"item"`
		Version uint64 `json:"version"`
	}
	postJSON(t, hs.URL+"/v1/update", `{"item":3}`, &ans)
	if ans.Item != 3 || ans.Version == 0 {
		t.Fatalf("inject answer %+v", ans)
	}
	if resp := postJSON(t, hs.URL+"/v1/signals", `{"snrs":[10,20],"load":0.5}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("signals: %s", resp.Status)
	}
	var adv struct {
		Broadcasts uint64 `json:"broadcasts"`
		NowUS      int64  `json:"now_us"`
	}
	postJSON(t, hs.URL+"/v1/advance", `{"to_us":30000000}`, &adv)
	if adv.NowUS != 30000000 || adv.Broadcasts == 0 {
		t.Fatalf("advance %+v: 30 virtual seconds must broadcast", adv)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"wdcserved_broadcasts_total", "wdcserved_queries_total", `wdcserved_info{algo="hybrid"}`,
		"wdcserved_query_frames_total", "wdcserved_query_batches_total"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestCapabilitiesPerScheme checks that every scheme presents exactly the
// capabilities it supports: the owned database always ingests, and only
// tair and hybrid piggyback a digest on responses.
func TestCapabilitiesPerScheme(t *testing.T) {
	for _, algo := range ir.Names {
		t.Run(algo, func(t *testing.T) {
			_, hs := newTestPlane(t, algo)
			want := []string{"report", "query", "ingest", "catchup"}
			if algo == "tair" || algo == "hybrid" {
				want = []string{"report", "piggyback", "query", "ingest", "catchup"}
			}
			resp, err := http.Get(hs.URL + "/v1/capabilities")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var caps struct {
				Names []string `json:"names"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&caps); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(caps.Names, want) {
				t.Fatalf("capabilities %v, want %v", caps.Names, want)
			}
		})
	}
}

func TestControlPlaneRejectsBadRequests(t *testing.T) {
	_, hs := newTestPlane(t, "hybrid")
	// Control mutations are POST-only.
	resp, err := http.Get(hs.URL + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/update: %s", resp.Status)
	}
	// Unknown fields and out-of-range items are 400s, not silent.
	if resp := postJSON(t, hs.URL+"/v1/update", `{"item":1,"bogus":1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %s", resp.Status)
	}
	if resp := postJSON(t, hs.URL+"/v1/update", `{"item":99999}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range item: %s", resp.Status)
	}
}

// TestControlPlaneErrorPaths drives every mutating endpoint through its
// rejection paths — wrong method, malformed JSON, wrong field types,
// oversized bodies past the 1 MiB cap — and asserts both the intended status
// code and that the runtime absorbed no state change.
func TestControlPlaneErrorPaths(t *testing.T) {
	_, hs := newTestPlane(t, "hybrid")

	// controlState is the part of Status a rejected request must not move.
	type controlState struct {
		algo    string
		nowUS   int64
		updates uint64
		bcasts  uint64
	}
	snapshot := func() controlState {
		t.Helper()
		resp, err := http.Get(hs.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serve.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return controlState{st.Algo, st.NowUS, st.UpdatesApplied, st.Broadcasts}
	}

	oversized := `{"pad":"` + strings.Repeat("x", 1<<20) + `"}`
	endpoints := []string{"/v1/update", "/v1/signals", "/v1/advance"}
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"update GET", http.MethodGet, "/v1/update", "", http.StatusMethodNotAllowed},
		{"signals DELETE", http.MethodDelete, "/v1/signals", "", http.StatusMethodNotAllowed},
		{"advance PUT", http.MethodPut, "/v1/advance", `{"to_us":1}`, http.StatusMethodNotAllowed},
		{"update non-JSON body", http.MethodPost, "/v1/update", `item=3`, http.StatusBadRequest},
		{"update wrong type", http.MethodPost, "/v1/update", `{"item":"three"}`, http.StatusBadRequest},
		{"update negative item", http.MethodPost, "/v1/update", `{"item":-1}`, http.StatusBadRequest},
		{"update unknown field", http.MethodPost, "/v1/update", `{"item":1,"extra":true}`, http.StatusBadRequest},
		{"signals malformed array", http.MethodPost, "/v1/signals", `{"snrs":[10,}`, http.StatusBadRequest},
		{"signals negative load", http.MethodPost, "/v1/signals", `{"snrs":[10],"load":-2}`, http.StatusBadRequest},
		{"signals overfull load", http.MethodPost, "/v1/signals", `{"snrs":[10],"load":1.5}`, http.StatusBadRequest},
		{"advance truncated", http.MethodPost, "/v1/advance", `{"to_us":`, http.StatusBadRequest},
		{"advance backwards", http.MethodPost, "/v1/advance", `{"to_us":-5}`, http.StatusBadRequest},
	}
	for _, path := range endpoints {
		cases = append(cases, struct {
			name   string
			method string
			path   string
			body   string
			want   int
		}{path + " oversized body", http.MethodPost, path, oversized, http.StatusBadRequest})
	}

	before := snapshot()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: got %s, want %d (body %s)", tc.method, tc.path, resp.Status, tc.want, body)
			}
			// Every rejection is a JSON error object, not a bare string.
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: rejection body %q is not an error object", tc.method, tc.path, body)
			}
		})
	}
	if after := snapshot(); after != before {
		t.Fatalf("rejected requests moved control state:\n  before %+v\n  after  %+v", before, after)
	}
}
