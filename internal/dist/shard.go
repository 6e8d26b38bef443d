package dist

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ppchecker/internal/longi"
	"ppchecker/internal/obs"
)

// libAnalysisStage is the artifact stage the coordinator-hosted
// shards keep serialized library-policy analyses under.
const libAnalysisStage = "lib-analysis"

// shardBacking is a worker's remote tier behind core.AnalysisCache:
// serialized library-policy analyses on the shards its coordinator
// hosts, at /shard/<i>/artifact/lib-analysis/<key>. A policy text's
// key is longi.StageKey over the checker configuration's fingerprint
// and the text, so workers of different configurations sharing one
// shard set never alias. Every transport error or unexpected status is
// a miss on Load and a dropped write on Store, so a dead or slow shard
// costs recomputes, never a failed app; the dist-shard-hits / -misses
// / -errors counters make that visible. Each call addresses the lease
// client's current coordinator, so the tier follows a failover: every
// coordinator hosts shard i alike.
type shardBacking struct {
	c           *client
	shards      int
	fingerprint []byte
	observer    *obs.Observer
}

// shardFor picks the shard holding key among n. The key is a sha256
// hex digest, already uniform, so its leading 64 bits mod n spread
// keys evenly with no second hash.
func shardFor(key string, n int) int {
	v, _ := strconv.ParseUint(key[:16], 16, 64)
	return int(v % uint64(n))
}

// do sends one request for text's artifact to its shard and returns
// the status and at most longi.MaxArtifactBytes of the body.
func (b *shardBacking) do(method, text string, body io.Reader) (int, []byte, error) {
	key := longi.StageKey(libAnalysisStage, b.fingerprint, []byte(text))
	url := fmt.Sprintf("%s/shard/%d/artifact/%s/%s", b.c.base(), shardFor(key, b.shards), libAnalysisStage, key)
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, longi.MaxArtifactBytes))
	return resp.StatusCode, data, err
}

// Load reads the analysis of text from its shard: a 200 is a hit, a
// 404 a miss, anything else an error that the cache treats as a miss.
func (b *shardBacking) Load(text string) ([]byte, bool) {
	status, data, err := b.do(http.MethodGet, text, nil)
	switch {
	case err == nil && status == http.StatusOK:
		b.observer.AddCounter("dist-shard-hits", 1)
		return data, true
	case err == nil && status == http.StatusNotFound:
		b.observer.AddCounter("dist-shard-misses", 1)
	default:
		b.observer.AddCounter("dist-shard-errors", 1)
	}
	return nil, false
}

// Store writes a computed analysis through to its shard, best effort.
func (b *shardBacking) Store(text string, data []byte) {
	if status, _, err := b.do(http.MethodPut, text, bytes.NewReader(data)); err != nil || status != http.StatusNoContent {
		b.observer.AddCounter("dist-shard-errors", 1)
	}
}
