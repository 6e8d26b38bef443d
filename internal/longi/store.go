package longi

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is the artifact store behind the engine: a durable map from
// (stage, content key) to the serialized stage output. Implementations
// must be safe for concurrent use and must make Put atomic — a reader
// may see the artifact or miss it, never a torn write.
//
// The engine's poison-safety contract lives one level up: only
// complete, successful stage outputs are ever handed to Put. A store
// is free to drop entries (eviction, crash, corruption); a dropped or
// unreadable artifact is just a miss and the stage recomputes.
type Store interface {
	// Get returns the artifact bytes and whether they were present.
	// The bytes are the caller's: the engine keeps them.
	Get(stage, key string) ([]byte, bool, error)
	// Put durably records the artifact bytes under (stage, key),
	// without modifying them.
	Put(stage, key string, data []byte) error
}

// DirStore is the durable on-disk store: one file per artifact at
//
//	<root>/<stage>/<key[:2]>/<key>.json
//
// fanned out over the first key byte so no directory grows unbounded.
// Writes go through a temp file + rename, so crashed writers leave at
// worst an orphaned temp file, never a torn artifact.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if needed) an on-disk artifact store.
func NewDirStore(root string) (*DirStore, error) {
	if root == "" {
		return nil, errors.New("longi: empty store root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("longi: create store root: %w", err)
	}
	return &DirStore{root: root}, nil
}

func (s *DirStore) path(stage, key string) (string, error) {
	if err := validateAddr(stage, key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, stage, key[:2], key+".json"), nil
}

// Get reads one artifact. A missing file is a miss, not an error.
func (s *DirStore) Get(stage, key string) ([]byte, bool, error) {
	p, err := s.path(stage, key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("longi: read artifact: %w", err)
	}
	return data, true, nil
}

// Put writes one artifact atomically. Concurrent writers racing on the
// same key both rename identical content-addressed bytes into place,
// so the race is benign.
func (s *DirStore) Put(stage, key string, data []byte) error {
	p, err := s.path(stage, key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("longi: create artifact dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("longi: create temp artifact: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("longi: write artifact: %w", werr)
		}
		return fmt.Errorf("longi: close artifact: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("longi: commit artifact: %w", err)
	}
	return nil
}

// validateAddr refuses anything that is not a plain stage name plus a
// lowercase-hex key, so a store can never be steered outside its root.
func validateAddr(stage, key string) error {
	if stage == "" {
		return errors.New("longi: empty stage")
	}
	for _, r := range stage {
		if (r < 'a' || r > 'z') && r != '-' {
			return fmt.Errorf("longi: invalid stage name %q", stage)
		}
	}
	if len(key) < 2 {
		return fmt.Errorf("longi: artifact key too short: %q", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("longi: invalid artifact key %q", key)
		}
	}
	return nil
}

// MemStore is the in-memory store used by tests and by ppserve's
// process-lifetime history cache. A positive cap bounds the entry
// count; at the cap an arbitrary entry is evicted, which costs a
// future recompute but never correctness.
type MemStore struct {
	mu  sync.Mutex
	cap int
	m   map[string][]byte
}

// NewMemStore builds an in-memory store holding at most cap artifacts
// (cap <= 0 means unbounded).
func NewMemStore(cap int) *MemStore {
	return &MemStore{cap: cap, m: map[string][]byte{}}
}

func memKey(stage, key string) string { return stage + "/" + key }

// Get returns a copy of the stored artifact.
func (s *MemStore) Get(stage, key string) ([]byte, bool, error) {
	if err := validateAddr(stage, key); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[memKey(stage, key)]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), data...), true, nil
}

// Put stores a copy of the artifact, evicting one arbitrary entry when
// the cap is reached.
func (s *MemStore) Put(stage, key string, data []byte) error {
	if err := validateAddr(stage, key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := memKey(stage, key)
	if _, have := s.m[mk]; !have && s.cap > 0 && len(s.m) >= s.cap {
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[mk] = append([]byte(nil), data...)
	return nil
}
