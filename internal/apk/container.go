package apk

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ppchecker/internal/dex"
)

// The SAPK container: magic, version, then length-prefixed named
// entries. Canonical entries are "AndroidManifest.xml" and
// "classes.dex"; packed apps replace classes.dex with "stub.bin"
// (the loader) and "payload.enc" (the enciphered dex).

const (
	containerMagic   = "SAPK"
	containerVersion = 1

	// EntryManifest is the manifest entry name.
	EntryManifest = "AndroidManifest.xml"
	// EntryDex is the bytecode entry name.
	EntryDex = "classes.dex"
	// EntryStub is the packer loader stub.
	EntryStub = "stub.bin"
	// EntryPayload is the enciphered dex payload.
	EntryPayload = "payload.enc"
)

// APK is an app package.
type APK struct {
	Manifest *Manifest
	Dex      *dex.Dex
	// Packed records whether the package was built (or loaded) in
	// packed form.
	Packed bool
}

// New assembles an APK value.
func New(m *Manifest, d *dex.Dex) *APK {
	return &APK{Manifest: m, Dex: d}
}

// Encode serializes the APK. When a.Packed is true the dex payload is
// enciphered behind a stub, simulating a packed app. An APK without a
// manifest or a dex image has no encoding and fails.
func Encode(a *APK) ([]byte, error) {
	if a.Manifest == nil || a.Dex == nil {
		return nil, fmt.Errorf("apk: encode: missing manifest or dex")
	}
	manifestData, err := EncodeManifest(a.Manifest)
	if err != nil {
		return nil, err
	}
	dexData := dex.Encode(a.Dex)
	entries := []entry{{EntryManifest, manifestData}}
	if a.Packed {
		key := packKey(a.Manifest.Package)
		entries = append(entries,
			entry{EntryStub, stubFor(key)},
			entry{EntryPayload, xorCipher(dexData, key)},
		)
	} else {
		entries = append(entries, entry{EntryDex, dexData})
	}
	var b bytes.Buffer
	b.WriteString(containerMagic)
	b.WriteByte(containerVersion)
	writeUvarint(&b, uint64(len(entries)))
	for _, e := range entries {
		writeUvarint(&b, uint64(len(e.name)))
		b.WriteString(e.name)
		writeUvarint(&b, uint64(len(e.data)))
		b.Write(e.data)
	}
	return b.Bytes(), nil
}

type entry struct {
	name string
	data []byte
}

// Decode parses a serialized APK, unpacking a packed payload (the
// DexHunter step) when necessary.
func Decode(data []byte) (*APK, error) {
	if len(data) < 5 || string(data[:4]) != containerMagic {
		return nil, fmt.Errorf("apk: bad magic")
	}
	if data[4] != containerVersion {
		return nil, fmt.Errorf("apk: unsupported version %d", data[4])
	}
	pos := 5
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("apk: bad varint at %d", pos)
		}
		pos += n
		return v, nil
	}
	n, err := readUvarint()
	if err != nil {
		return nil, err
	}
	// The known entries, by name; the last duplicate wins and unknown
	// names are skipped. Entry data is a subslice of the non-nil input,
	// so even an empty entry is non-nil: nil means absent.
	var manifestData, dexData, stub, payload []byte
	for i := uint64(0); i < n; i++ {
		nameLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if nameLen > uint64(len(data)-pos) {
			return nil, fmt.Errorf("apk: truncated entry name")
		}
		name := data[pos : pos+int(nameLen)]
		pos += int(nameLen)
		dataLen, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if dataLen > uint64(len(data)-pos) {
			return nil, fmt.Errorf("apk: truncated entry %q", name)
		}
		body := data[pos : pos+int(dataLen)]
		pos += int(dataLen)
		switch string(name) {
		case EntryManifest:
			manifestData = body
		case EntryDex:
			dexData = body
		case EntryStub:
			stub = body
		case EntryPayload:
			payload = body
		}
	}
	if manifestData == nil {
		return nil, fmt.Errorf("apk: missing %s", EntryManifest)
	}
	m, err := DecodeManifest(manifestData)
	if err != nil {
		return nil, err
	}
	a := &APK{Manifest: m}
	if dexData == nil {
		// Packed app: recover the dex from the payload using the key
		// recovered from the stub (DexHunter's job).
		if stub == nil || payload == nil {
			return nil, fmt.Errorf("apk: missing %s and no packed payload", EntryDex)
		}
		key, err := keyFromStub(stub)
		if err != nil {
			return nil, err
		}
		dexData = xorCipher(payload, key)
		a.Packed = true
	}
	d, err := dex.Decode(dexData)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	// Packed payloads come from untrusted packers; analyses assume a
	// structurally sound image, so gate on the verifier.
	if err := dex.Verify(d); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	a.Dex = d
	return a, nil
}

// packKey derives the packer key from the package name, as real
// packers derive per-app keys.
func packKey(pkg string) []byte {
	key := make([]byte, 16)
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		for _, c := range pkg {
			h = (h ^ uint32(c)) * 16777619
		}
		h = h*31 + uint32(i)
		key[i] = byte(h >> 16)
	}
	return key
}

const stubMagic = "STUB"

// stubFor builds the loader stub embedding the key.
func stubFor(key []byte) []byte {
	out := make([]byte, 0, len(stubMagic)+1+len(key))
	out = append(out, stubMagic...)
	out = append(out, byte(len(key)))
	return append(out, key...)
}

// keyFromStub recovers the cipher key from a loader stub.
func keyFromStub(stub []byte) ([]byte, error) {
	if len(stub) < len(stubMagic)+1 || string(stub[:4]) != stubMagic {
		return nil, fmt.Errorf("apk: unrecognized packer stub")
	}
	n := int(stub[4])
	if len(stub) < 5+n {
		return nil, fmt.Errorf("apk: truncated packer stub")
	}
	return stub[5 : 5+n], nil
}

// xorCipher applies the rolling XOR cipher (its own inverse).
func xorCipher(data, key []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ key[i%len(key)]
	}
	return out
}

func writeUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}
