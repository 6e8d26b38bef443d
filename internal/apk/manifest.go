// Package apk models the app package: an XML manifest (package name,
// permissions, components), a binary container holding the manifest and
// the SDEX bytecode, and optional packing — an enciphered dex payload
// behind a loader stub — with the unpacker playing DexHunter's role.
package apk

import (
	"encoding/xml"
	"fmt"
)

// Manifest mirrors the parts of AndroidManifest.xml PPChecker reads.
type Manifest struct {
	XMLName     xml.Name     `xml:"manifest"`
	Package     string       `xml:"package,attr"`
	Permissions []Permission `xml:"uses-permission"`
	Application Application  `xml:"application"`
}

// Permission is one uses-permission entry.
type Permission struct {
	Name string `xml:"name,attr"`
}

// Application lists the app components.
type Application struct {
	Activities []Component `xml:"activity"`
	Services   []Component `xml:"service"`
	Receivers  []Component `xml:"receiver"`
	Providers  []Component `xml:"provider"`
}

// Component is one declared component.
type Component struct {
	Name     string         `xml:"name,attr"`
	Exported bool           `xml:"exported,attr,omitempty"`
	Filters  []IntentFilter `xml:"intent-filter"`
}

// IntentFilter carries the actions a component reacts to.
type IntentFilter struct {
	Actions []Action `xml:"action"`
}

// Action is one intent action string.
type Action struct {
	Name string `xml:"name,attr"`
}

// HasPermission reports whether the manifest requests the permission.
func (m *Manifest) HasPermission(name string) bool {
	for _, p := range m.Permissions {
		if p.Name == name {
			return true
		}
	}
	return false
}

// PermissionNames returns the requested permission names in order.
func (m *Manifest) PermissionNames() []string {
	out := make([]string, len(m.Permissions))
	for i, p := range m.Permissions {
		out[i] = p.Name
	}
	return out
}

// Components returns every component with its kind.
func (m *Manifest) Components() []DeclaredComponent {
	app := &m.Application
	out := make([]DeclaredComponent, 0,
		len(app.Activities)+len(app.Services)+len(app.Receivers)+len(app.Providers))
	add := func(kind ComponentKind, cs []Component) {
		for _, c := range cs {
			out = append(out, DeclaredComponent{Kind: kind, Component: c})
		}
	}
	add(KindActivity, app.Activities)
	add(KindService, app.Services)
	add(KindReceiver, app.Receivers)
	add(KindProvider, app.Providers)
	return out
}

// ComponentKind distinguishes the four Android component types.
type ComponentKind int

// Component kinds.
const (
	KindActivity ComponentKind = iota
	KindService
	KindReceiver
	KindProvider
)

var kindNames = [...]string{"activity", "service", "receiver", "provider"}

func (k ComponentKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// DeclaredComponent is a component with its kind.
type DeclaredComponent struct {
	Kind ComponentKind
	Component
}

// EncodeManifest serializes the manifest to XML.
func EncodeManifest(m *Manifest) ([]byte, error) {
	out, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("apk: encode manifest: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// DecodeManifest parses manifest XML.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("apk: decode manifest: %w", err)
	}
	if m.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package name")
	}
	return &m, nil
}
