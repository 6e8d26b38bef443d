package apk

// Test hooks onto the canonical manifest codec, so the external tests
// can tell the hand-written paths from the encoding/xml fallback.
var (
	EncodeCanonical = encodeCanonical
	DecodeCanonical = decodeCanonical
)
