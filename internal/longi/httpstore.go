package longi

import (
	"io"
	"net/http"
	"strings"
)

// The HTTP wire form of the Store interface, used by the distributed
// tier to host artifact shards on a coordinator for its workers:
//
//	GET /artifact/<stage>/<key>  -> 200 artifact bytes | 404 miss
//	PUT /artifact/<stage>/<key>  -> 204 stored
//
// The address rules are the Store's own (validateAddr), enforced at
// the handler so a remote caller can never steer a DirStore outside
// its root. Artifacts are opaque bytes end to end; the content
// addressing that makes a stale or torn artifact impossible lives in
// the keys, not the transport.

// storePathPrefix is the handler's mount point for artifact routes.
const storePathPrefix = "/artifact/"

// MaxArtifactBytes bounds one artifact body on the wire (16 MiB —
// stage outputs are JSON documents, far smaller in practice).
const MaxArtifactBytes = 16 << 20

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
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxArtifactBytes))
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
