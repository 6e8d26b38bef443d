package longi

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPStoreRoundTrip: the wire form over a live server — a GET
// before the PUT is a 404, the PUT a 204, and a later GET answers the
// stored bytes, which sit in the backing store under the same address.
func TestHTTPStoreRoundTrip(t *testing.T) {
	backend := NewMemStore(0)
	srv := httptest.NewServer(NewStoreHandler(backend))
	defer srv.Close()
	key := strings.Repeat("ab", 16)
	do := func(method, stage string, body []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+"/artifact/"+stage+"/"+key, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}

	if status, _ := do(http.MethodGet, "policy", nil); status != http.StatusNotFound {
		t.Fatalf("empty store: GET answered %d, want 404", status)
	}
	want := `{"stage":"policy"}`
	if status, _ := do(http.MethodPut, "policy", []byte(want)); status != http.StatusNoContent {
		t.Fatalf("PUT answered %d, want 204", status)
	}
	if status, data := do(http.MethodGet, "policy", nil); status != http.StatusOK || data != want {
		t.Fatalf("GET after PUT: %d %q", status, data)
	}
	data, hit, err := backend.Get("policy", key)
	if err != nil || !hit || string(data) != want {
		t.Fatalf("backend: %q hit=%v err=%v", data, hit, err)
	}
	// A different stage is a different address space.
	if status, _ := do(http.MethodGet, "desc", nil); status != http.StatusNotFound {
		t.Fatalf("other stage: GET answered %d, want 404", status)
	}
}

// spyStore counts every call that reaches the backing store.
type spyStore struct{ calls int }

func (s *spyStore) Get(string, string) ([]byte, bool, error) { s.calls++; return nil, false, nil }
func (s *spyStore) Put(string, string, []byte) error         { s.calls++; return nil }

// failingStore is a shard whose backing store has died: every call
// errors.
type failingStore struct{}

func (failingStore) Get(string, string) ([]byte, bool, error) {
	return nil, false, errors.New("disk gone")
}
func (failingStore) Put(string, string, []byte) error { return errors.New("disk gone") }

// TestHTTPStoreDeadShardIsAnError: a shard whose backing store fails
// answers 500 to GET and PUT — never a 404 miss or a 204 stored — so a
// remote caller can tell a dead shard from an absent artifact.
func TestHTTPStoreDeadShardIsAnError(t *testing.T) {
	path := "/artifact/policy/" + strings.Repeat("ab", 16)
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		rec := httptest.NewRecorder()
		NewStoreHandler(failingStore{}).ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("x")))
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%s over a failing store answered %d, want 500", method, rec.Code)
		}
	}
}

// TestHTTPStoreRejectsBadAddresses: the handler is the boundary that
// keeps remote callers from steering a DirStore outside its root. It
// answers 400 to an invalid stage, a traversal key, a missing key and
// an oversized body, and 405 to a method other than GET or PUT, each
// before the backing store is touched.
func TestHTTPStoreRejectsBadAddresses(t *testing.T) {
	key := strings.Repeat("ab", 16)
	cases := []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"invalid stage", http.MethodGet, "/artifact/Policy!/" + key, nil, http.StatusBadRequest},
		{"traversal key", http.MethodGet, "/artifact/policy/..%2F..%2Fx", nil, http.StatusBadRequest},
		{"traversal put", http.MethodPut, "/artifact/policy/..%2F..%2Fx", []byte("x"), http.StatusBadRequest},
		{"dot-dot key", http.MethodGet, "/artifact/policy/..", nil, http.StatusBadRequest},
		{"missing key", http.MethodGet, "/artifact/policy/", nil, http.StatusBadRequest},
		{"missing stage and key", http.MethodPut, "/artifact/", []byte("x"), http.StatusBadRequest},
		{"oversized body", http.MethodPut, "/artifact/policy/" + key, make([]byte, MaxArtifactBytes+1), http.StatusBadRequest},
		{"post", http.MethodPost, "/artifact/policy/" + key, []byte("x"), http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		store := &spyStore{}
		rec := httptest.NewRecorder()
		NewStoreHandler(store).ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, bytes.NewReader(tc.body)))
		if rec.Code != tc.want {
			t.Errorf("%s: %s %s answered %d, want %d", tc.name, tc.method, tc.path, rec.Code, tc.want)
		}
		if store.calls != 0 {
			t.Errorf("%s: the backing store was called %d times", tc.name, store.calls)
		}
	}
}
