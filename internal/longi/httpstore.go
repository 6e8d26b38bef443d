package longi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The HTTP wire form of the Store interface, used by the distributed
// tier to host artifact shards on a coordinator and read them from
// workers:
//
//	GET /artifact/<stage>/<key>  -> 200 artifact bytes | 404 miss
//	PUT /artifact/<stage>/<key>  -> 204 stored
//
// The address rules are the Store's own (validateAddr), enforced again
// server-side so a remote caller can never steer a DirStore outside
// its root. Artifacts are opaque bytes end to end; the content
// addressing that makes a stale or torn artifact impossible lives in
// the keys, not the transport.

// storePathPrefix is the handler's mount point for artifact routes.
const storePathPrefix = "/artifact/"

// maxArtifactBytes bounds one artifact body on the wire (16 MiB —
// stage outputs are JSON documents, far smaller in practice).
const maxArtifactBytes = 16 << 20

// StoreHandler serves a Store over HTTP.
type StoreHandler struct {
	store Store
}

// NewStoreHandler wraps a Store into an http.Handler.
func NewStoreHandler(s Store) *StoreHandler { return &StoreHandler{store: s} }

// splitArtifactPath parses "/artifact/<stage>/<key>".
func splitArtifactPath(path string) (stage, key string, ok bool) {
	rest, found := strings.CutPrefix(path, storePathPrefix)
	if !found {
		return "", "", false
	}
	stage, key, found = strings.Cut(rest, "/")
	if !found || stage == "" || key == "" || strings.Contains(key, "/") {
		return "", "", false
	}
	return stage, key, true
}

func (h *StoreHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	stage, key, ok := splitArtifactPath(r.URL.Path)
	if !ok {
		http.Error(w, "longi: bad artifact path", http.StatusBadRequest)
		return
	}
	if err := validateAddr(stage, key); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, hit, err := h.store.Get(stage, key)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		case !hit:
			http.Error(w, "longi: artifact not found", http.StatusNotFound)
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
		}
	case http.MethodPut:
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
		if err != nil {
			http.Error(w, "longi: artifact body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := h.store.Put(stage, key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT required", http.StatusMethodNotAllowed)
	}
}

// HTTPStore is the client side: a Store implementation that reads and
// writes one remote shard endpoint. Transport failures surface as
// errors so a caller (the distributed tier's sharded read-through
// layer) can degrade them to misses and fall back to local compute.
type HTTPStore struct {
	base   string
	client *http.Client
}

// NewHTTPStore points a Store client at a shard base URL (everything
// before "/artifact/..."). A nil client gets a dedicated one with a
// short timeout: a hung shard must cost a bounded stall, not a wedged
// worker.
func NewHTTPStore(base string, client *http.Client) *HTTPStore {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &HTTPStore{base: strings.TrimSuffix(base, "/"), client: client}
}

func (s *HTTPStore) url(stage, key string) string {
	return s.base + storePathPrefix + stage + "/" + key
}

// Get fetches one artifact; a 404 is a miss, anything else non-200 an
// error.
func (s *HTTPStore) Get(stage, key string) ([]byte, bool, error) {
	if err := validateAddr(stage, key); err != nil {
		return nil, false, err
	}
	resp, err := s.client.Get(s.url(stage, key))
	if err != nil {
		return nil, false, fmt.Errorf("longi: shard get: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
		if err != nil {
			return nil, false, fmt.Errorf("longi: shard get body: %w", err)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("longi: shard get: status %d", resp.StatusCode)
	}
}

// Put stores one artifact remotely.
func (s *HTTPStore) Put(stage, key string, data []byte) error {
	if err := validateAddr(stage, key); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, s.url(stage, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("longi: shard put: %w", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("longi: shard put: status %d", resp.StatusCode)
	}
	return nil
}
