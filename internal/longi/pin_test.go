package longi

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"ppchecker/internal/core"
	"ppchecker/internal/synth"
)

// stageKeyDigest pins the sha256 over every store address the engine
// looks up for a 100-app, 5-version corpus (seed 42): the policy, desc,
// static and detect StageKeys of each version, in release order. The
// durable stores are keyed on these addresses, so a change to how keys
// are framed, hashed or derived must leave the digest where it is, or
// every warm store goes cold.
const stageKeyDigest = "5559dd497a9bb3c420ce2fbe79bd38e1c65c467189a40a375dcd593e58191d82"

// addressLog is a Store that hashes the address of every Get into h
// and delegates to an in-memory store.
type addressLog struct {
	*MemStore
	h hash.Hash
}

func (s addressLog) Get(stage, key string) ([]byte, bool, error) {
	fmt.Fprintf(s.h, "%s/%s\n", stage, key)
	return s.MemStore.Get(stage, key)
}

func TestStageKeysPinned(t *testing.T) {
	corpus, err := synth.GenerateVersioned(synth.VersionedConfig{Seed: 42, Apps: 100, Versions: 5})
	if err != nil {
		t.Fatal(err)
	}
	log := addressLog{MemStore: NewMemStore(0), h: sha256.New()}
	eng := NewEngine(log, Config{})
	checker := core.NewChecker(eng.Config().CheckerOptions()...)
	lookups := 0
	for _, va := range corpus.Apps {
		for _, v := range va.Versions {
			before := eng.Stats().Lookups()
			if _, err := eng.CheckVersion(context.Background(), checker, v.App); err != nil {
				t.Fatalf("%s v%d: %v", va.Pkg, v.Version, err)
			}
			lookups += int(eng.Stats().Lookups() - before)
		}
	}
	if lookups < 3*len(corpus.Apps)*5 {
		t.Fatalf("only %d store lookups over %d versions", lookups, len(corpus.Apps)*5)
	}
	if got := hex.EncodeToString(log.h.Sum(nil)); got != stageKeyDigest {
		t.Fatalf("stage key digest = %s, want %s", got, stageKeyDigest)
	}
}
