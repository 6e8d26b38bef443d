// Package longi is the incremental longitudinal compliance engine: it
// analyzes an app as a *sequence of versions*, content-addresses every
// pipeline stage input (policy-text hash, dex hash, description hash,
// checker-config fingerprint), and caches stage outputs in a durable
// artifact store keyed by those hashes. Re-analyzing version N+1 then
// recomputes only the stages whose inputs actually changed — a full
// corpus re-run becomes a sparse delta run — and a cross-version
// differ turns the per-version reports into DriftFindings ("v7 started
// reading contacts but the policy never changed").
//
// The correctness bar, enforced by the differential tests: a delta run
// against a warm store and a cold run from scratch produce
// bit-identical reports and run statistics.
package longi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Frame canonically serializes a stage identity plus its input
// sections into the hash pre-image behind StageKey. The layout is
// injective by construction — every variable-length component is
// length-prefixed and the section count is explicit — so no two
// distinct (stage, sections) tuples share a frame:
//
//	uvarint(len(stage)) stage
//	uvarint(len(sections))
//	{ uvarint(len(section)) section }*
//
// Injectivity of the frame (not just collision resistance of the hash)
// is what the FuzzStageKey target checks: concatenation-style
// ambiguities ("ab"+"c" vs "a"+"bc") must be impossible at the framing
// layer, before sha256 is even involved.
func Frame(stage string, sections ...[]byte) []byte {
	n := len(stage) + 3*binary.MaxVarintLen64
	for _, s := range sections {
		n += len(s) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, n)
	writeFrame(stage, sections, func(p []byte) { buf = append(buf, p...) })
	return buf
}

// writeFrame hands the frame of (stage, sections) to write in pieces
// whose concatenation is the frame: Frame appends them, StageKey
// hashes them without building the frame. write must not keep a
// piece: the header buffer is reused.
func writeFrame(stage string, sections [][]byte, write func([]byte)) {
	hdr := make([]byte, 0, 2*binary.MaxVarintLen64+len(stage))
	hdr = binary.AppendUvarint(hdr, uint64(len(stage)))
	hdr = append(hdr, stage...)
	write(binary.AppendUvarint(hdr, uint64(len(sections))))
	for _, s := range sections {
		write(binary.AppendUvarint(hdr[:0], uint64(len(s))))
		write(s)
	}
}

// StageKey is the content address of one stage computation: the sha256
// of the canonical frame, hex-encoded. The stage name acts as a domain
// separator, so identical inputs fed to different stages can never
// alias each other's artifacts.
func StageKey(stage string, sections ...[]byte) string {
	h := sha256.New()
	writeFrame(stage, sections, func(p []byte) { h.Write(p) })
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}
