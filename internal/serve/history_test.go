package serve_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"ppchecker/internal/serve"
	"ppchecker/internal/synth"
)

// historyRequest converts a generated versioned app into its wire form.
func historyRequest(t testing.TB, va synth.VersionedApp) serve.HistoryRequest {
	t.Helper()
	req := serve.HistoryRequest{Name: va.Pkg}
	for _, v := range va.Versions {
		req.Versions = append(req.Versions, wireApp(t, synth.GeneratedApp{App: v.App}))
	}
	return req
}

// TestServeCheckHistory posts a release chain with planted drift and
// checks the response carries per-version reports plus the expected
// drift findings, and that a repeated post is served from the
// server-lifetime artifact store without changing the answer.
func TestServeCheckHistory(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 2})
	fh := synth.NewVersionedFirehose(51, 5)

	// Find an app whose history has planted drift.
	var va synth.VersionedApp
	for i := int64(0); ; i++ {
		v, err := fh.History(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Drifts) > 0 {
			va = v
			break
		}
		if i > 20 {
			t.Fatal("no history with planted drift in 20 apps")
		}
	}

	url := "http://" + srv.Addr() + "/check-history"
	resp, body := postJSON(t, url, historyRequest(t, va))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var hr serve.HistoryResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	if hr.Name != va.Pkg || len(hr.Versions) != len(va.Versions) {
		t.Fatalf("response shape: name=%q versions=%d, want %q/%d",
			hr.Name, len(hr.Versions), va.Pkg, len(va.Versions))
	}
	if hr.Stats.Checked != len(va.Versions) {
		t.Fatalf("stats = %+v, want %d checked", hr.Stats, len(va.Versions))
	}
	if len(hr.Drift) == 0 {
		t.Fatalf("planted drift (%+v) produced no drift findings", va.Drifts)
	}
	for _, p := range va.Drifts {
		found := false
		for _, d := range hr.Drift {
			if d.FromVersion == p.FromVersion && d.ToVersion == p.ToVersion &&
				d.Info == string(p.Info) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted drift on %q at v%d→v%d missing from response: %+v",
				p.Info, p.FromVersion, p.ToVersion, hr.Drift)
		}
	}

	// Second post: warm artifact store, identical answer.
	resp2, body2 := postJSON(t, url, historyRequest(t, va))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d, body %s", resp2.StatusCode, body2)
	}
	var hr2 serve.HistoryResponse
	if err := json.Unmarshal(body2, &hr2); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(hr.Drift)
	b, _ := json.Marshal(hr2.Drift)
	if string(a) != string(b) {
		t.Errorf("warm drift differs:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestServeCheckHistoryEmptyChain: /check-history is served with no
// option set, and an empty chain is 400.
func TestServeCheckHistoryEmptyChain(t *testing.T) {
	srv := startServer(t, serve.Options{Workers: 1})
	resp, body := postJSON(t, "http://"+srv.Addr()+"/check-history", serve.HistoryRequest{Name: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty chain status = %d, body %s", resp.StatusCode, body)
	}
}
