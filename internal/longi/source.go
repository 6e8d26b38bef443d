package longi

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"ppchecker/internal/apk"
	"ppchecker/internal/core"
	"ppchecker/internal/stream"
	"ppchecker/internal/synth"
)

// VersionSource adapts a versioned firehose to the streaming layer:
// every app version flows through the bounded queue, the worker pool,
// and the checkpoint journal as its own item, analyzed by the
// incremental engine instead of plain CheckSafe. Items are named
// "<pkg>@v<N>" and their journal hash binds the version's actual
// content (policy, description, bytecode) plus the engine's config
// fingerprint — so a resumed run replays a version only if both its
// inputs and the checker configuration are unchanged, exactly the
// invalidation rule the artifact store itself uses.
//
// The stream's workers must have the engine's configuration: pass
// engine.Config() as the stream's Config (CheckVersion refuses any
// other).
type VersionSource struct {
	eng  *Engine
	fh   *synth.VersionedFirehose
	apps int64

	appIdx int64
	verIdx int
	cur    synth.VersionedApp
	loaded bool
}

// NewVersionSource streams `apps` histories (apps <= 0 means endless)
// from the firehose through the engine.
func NewVersionSource(eng *Engine, fh *synth.VersionedFirehose, apps int64) *VersionSource {
	return &VersionSource{eng: eng, fh: fh, apps: apps}
}

// Next implements stream.Source: single-producer, no locking needed.
func (s *VersionSource) Next(ctx context.Context) (*stream.Item, error) {
	for !s.loaded || s.verIdx >= len(s.cur.Versions) {
		if s.apps > 0 && s.appIdx >= s.apps {
			return nil, io.EOF
		}
		va, err := s.fh.History(s.appIdx)
		if err != nil {
			return nil, err
		}
		s.cur, s.loaded, s.verIdx = va, true, 0
		s.appIdx++
	}
	v := s.cur.Versions[s.verIdx]
	s.verIdx++

	app := v.App
	var apkBytes []byte
	if app.APK != nil {
		if b, err := apk.Encode(app.APK); err == nil {
			apkBytes = b
		} else {
			// An unencodable APK still gets a stable identity: the
			// version coordinates. The analysis itself will degrade the
			// static stage the same way on every run.
			apkBytes = []byte("unencodable:" + s.cur.Pkg + "@" + strconv.Itoa(v.Version))
		}
	}
	eng := s.eng
	return &stream.Item{
		Name: fmt.Sprintf("%s@v%d", s.cur.Pkg, v.Version),
		Hash: stream.HashBytes(eng.fp, []byte(app.PolicyHTML), []byte(app.Description), apkBytes),
		Run: func(ctx context.Context, checker *core.Checker) (*core.Report, error) {
			return eng.CheckVersion(ctx, checker, app)
		},
	}, nil
}
