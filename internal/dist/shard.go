package dist

import (
	"fmt"

	"ppchecker/internal/core"
	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
)

// ShardedStore fans one longi.Store address space out over shard
// endpoints by consistent hash. It is the worker-side read-through
// layer in front of the coordinator-hosted shards: a shard error —
// dead endpoint, timeout, bad response — degrades to a miss on Get and
// a silent drop on Put, so losing a shard costs recomputes, never
// failed apps. The obs counters (dist-shard-hits / -misses / -errors)
// make the degradation visible.
type ShardedStore struct {
	shards   []longi.Store
	ring     *Ring
	observer *obs.Observer
}

// NewShardedStore builds the sharded layer. names identify the shards
// on the ring — they must be identical (content and order) in every
// process that shares the shard set, or keys will map differently;
// use the shard URLs.
func NewShardedStore(shards []longi.Store, names []string, observer *obs.Observer) (*ShardedStore, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("dist: no shards")
	}
	if len(shards) != len(names) {
		return nil, fmt.Errorf("dist: %d shards but %d names", len(shards), len(names))
	}
	return &ShardedStore{shards: shards, ring: NewRing(names), observer: observer}, nil
}

// pick routes (stage, key) to its shard. The stage participates in the
// routing key so different stages of the same content spread out.
func (s *ShardedStore) pick(stage, key string) longi.Store {
	return s.shards[s.ring.Pick(stage+"/"+key)]
}

// Get reads through the owning shard; errors degrade to misses.
func (s *ShardedStore) Get(stage, key string) ([]byte, bool, error) {
	data, hit, err := s.pick(stage, key).Get(stage, key)
	switch {
	case err != nil:
		s.observer.AddCounter("dist-shard-errors", 1)
		return nil, false, nil
	case hit:
		s.observer.AddCounter("dist-shard-hits", 1)
		return data, true, nil
	default:
		s.observer.AddCounter("dist-shard-misses", 1)
		return nil, false, nil
	}
}

// Put writes through to the owning shard, best effort.
func (s *ShardedStore) Put(stage, key string, data []byte) error {
	if err := s.pick(stage, key).Put(stage, key, data); err != nil {
		s.observer.AddCounter("dist-shard-errors", 1)
	}
	return nil
}

// libAnalysisStage is the artifact stage the coordinator-hosted
// shards keep serialized library-policy analyses under (the remote
// tier behind core.AnalysisCache).
const libAnalysisStage = "lib-analysis"

// Backing adapts a longi.Store (typically a ShardedStore) into the
// core.CacheBacking contract: policy texts are content-addressed with
// longi.StageKey under libAnalysisStage, bound to the checker
// configuration's fingerprint so caches filled by differently
// configured checkers can never alias.
type Backing struct {
	store       longi.Store
	fingerprint []byte
}

// NewBacking builds the library-policy cache backing over a store for
// checkers of configuration cfg.
func NewBacking(store longi.Store, cfg core.Config) *Backing {
	return &Backing{store: store, fingerprint: cfg.Fingerprint()}
}

func (b *Backing) key(text string) string {
	return longi.StageKey(libAnalysisStage, b.fingerprint, []byte(text))
}

// Load fetches the serialized analysis for a text; any error is a miss
// (the caller then computes locally).
func (b *Backing) Load(text string) ([]byte, bool) {
	data, hit, err := b.store.Get(libAnalysisStage, b.key(text))
	if err != nil || !hit {
		return nil, false
	}
	return data, true
}

// Store writes a computed analysis through, best effort.
func (b *Backing) Store(text string, data []byte) {
	_ = b.store.Put(libAnalysisStage, b.key(text), data)
}
