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

// Component is one declared component. Child elements such as
// intent filters are not modelled: ICC resolves explicit intents by
// class name, so nothing reads them, and decoding skips them.
type Component struct {
	Name     string `xml:"name,attr"`
	Exported bool   `xml:"exported,attr,omitempty"`
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

// Components returns every component with its kind.
func (m *Manifest) Components() []DeclaredComponent {
	app := &m.Application
	out := make([]DeclaredComponent, 0,
		len(app.Activities)+len(app.Services)+len(app.Receivers)+len(app.Providers))
	for k, cs := range app.byKind() {
		for _, c := range cs {
			out = append(out, DeclaredComponent{Kind: ComponentKind(k), Component: c})
		}
	}
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

// byKind lists the application's components indexed by ComponentKind.
func (app *Application) byKind() [len(kindNames)][]Component {
	return [...][]Component{app.Activities, app.Services, app.Receivers, app.Providers}
}

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

// EncodeManifest serializes the manifest to XML: the bytes xml.Header
// plus xml.MarshalIndent(m, "", "  ") produce. The canonical codec
// writes them by hand; a manifest with a value encoding/xml would
// escape goes through encoding/xml instead.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if out, ok := encodeCanonical(m); ok {
		return out, nil
	}
	out, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("apk: encode manifest: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// DecodeManifest parses manifest XML. Input in the canonical shape
// EncodeManifest emits is read by hand; anything else goes to
// xml.Unmarshal, which defines the accepted inputs, the values and the
// errors.
func DecodeManifest(data []byte) (*Manifest, error) {
	if m, ok := decodeCanonical(data); ok {
		return m, nil
	}
	var m Manifest
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("apk: decode manifest: %w", err)
	}
	if m.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package name")
	}
	return &m, nil
}

// The canonical shape is the one xml.MarshalIndent gives a Manifest
// with two-space indentation: every element on its own line, empty
// elements as an open and close tag pair, attributes in field order
// with exported only when true, components grouped by kind in
// activity, service, receiver, provider order.
const (
	manifestHead    = xml.Header + `<manifest package="`
	permissionOpen  = "\n  <uses-permission name=\""
	permissionClose = `"></uses-permission>`
	applicationOpen = "\n  <application>"
	applicationNone = "</application>"
	applicationEnd  = "\n  </application>"
	manifestEnd     = "\n</manifest>"
	exportedAttr    = ` exported="true"`
)

// Per-kind component framing, indexed by ComponentKind: the open tag
// up to the name value, and the close tag.
var componentOpen, componentClose [len(kindNames)]string

func init() {
	for k, name := range kindNames {
		componentOpen[k] = "\n    <" + name + ` name="`
		componentClose[k] = "</" + name + ">"
	}
}

// plainValue reports whether encoding/xml writes s into an attribute
// unchanged: printable ASCII without the five characters it escapes.
func plainValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return false
		}
	}
	return true
}

func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '&' && c != '<' && c != '>' && c != '"' && c != '\''
}

// encodeCanonical writes the canonical encoding in one allocation. It
// declines (ok false) a nil manifest and any value that would need
// escaping.
func encodeCanonical(m *Manifest) (out []byte, ok bool) {
	if m == nil || !plainValue(m.Package) {
		return nil, false
	}
	size := len(manifestHead) + len(m.Package) + len(`">`) +
		len(applicationOpen) + len(applicationEnd) + len(manifestEnd)
	for _, p := range m.Permissions {
		if !plainValue(p.Name) {
			return nil, false
		}
		size += len(permissionOpen) + len(p.Name) + len(permissionClose)
	}
	kinds := m.Application.byKind()
	components := 0
	for k, cs := range kinds {
		for _, c := range cs {
			if !plainValue(c.Name) {
				return nil, false
			}
			size += len(componentOpen[k]) + len(c.Name) + len(`"`) + len(exportedAttr) + len(">") + len(componentClose[k])
		}
		components += len(cs)
	}

	b := make([]byte, 0, size)
	b = append(b, manifestHead...)
	b = append(b, m.Package...)
	b = append(b, `">`...)
	for _, p := range m.Permissions {
		b = append(b, permissionOpen...)
		b = append(b, p.Name...)
		b = append(b, permissionClose...)
	}
	b = append(b, applicationOpen...)
	if components == 0 {
		b = append(b, applicationNone...)
	} else {
		for k, cs := range kinds {
			for i := range cs {
				b = appendComponent(b, k, &cs[i])
			}
		}
		b = append(b, applicationEnd...)
	}
	return append(b, manifestEnd...), true
}

func appendComponent(b []byte, k int, c *Component) []byte {
	b = append(b, componentOpen[k]...)
	b = append(b, c.Name...)
	b = append(b, '"')
	if c.Exported {
		b = append(b, exportedAttr...)
	}
	b = append(b, '>')
	return append(b, componentClose[k]...)
}

// decodeCanonical reads input in exactly the shape encodeCanonical
// writes, with a non-empty package. It declines (ok false) anything
// else, including input xml.Unmarshal would accept, so the caller can
// hand it to encoding/xml. Every decoded string is a substring of one
// copy of the input.
func decodeCanonical(data []byte) (m *Manifest, ok bool) {
	if len(data) < len(manifestHead) || string(data[:len(manifestHead)]) != manifestHead {
		return nil, false
	}
	r := manifestReader{s: string(data), pos: len(manifestHead)}
	m = &Manifest{XMLName: xml.Name{Local: "manifest"}}
	if m.Package, ok = r.value(); !ok || m.Package == "" || !r.lit(`">`) {
		return nil, false
	}
	for r.lit(permissionOpen) {
		name, ok := r.value()
		if !ok || !r.lit(permissionClose) {
			return nil, false
		}
		m.Permissions = append(m.Permissions, Permission{Name: name})
	}
	if !r.lit(applicationOpen) {
		return nil, false
	}
	if !r.lit(applicationNone) {
		app := &m.Application
		lists := [...]*[]Component{&app.Activities, &app.Services, &app.Receivers, &app.Providers}
		components := 0
		for k, list := range lists {
			for r.lit(componentOpen[k]) {
				c, ok := r.component(k)
				if !ok {
					return nil, false
				}
				*list = append(*list, c)
				components++
			}
		}
		if components == 0 || !r.lit(applicationEnd) {
			return nil, false
		}
	}
	if !r.lit(manifestEnd) || r.pos != len(r.s) {
		return nil, false
	}
	return m, true
}

// manifestReader is a cursor over canonical manifest text.
type manifestReader struct {
	s   string
	pos int
}

// lit consumes tok if the input continues with it.
func (r *manifestReader) lit(tok string) bool {
	if len(r.s)-r.pos < len(tok) || r.s[r.pos:r.pos+len(tok)] != tok {
		return false
	}
	r.pos += len(tok)
	return true
}

// value consumes an attribute value up to its closing quote. It
// declines a value holding any byte encoding/xml would have escaped.
func (r *manifestReader) value() (string, bool) {
	for i := r.pos; i < len(r.s); i++ {
		c := r.s[i]
		if c == '"' {
			v := r.s[r.pos:i]
			r.pos = i
			return v, true
		}
		if !plainByte(c) {
			return "", false
		}
	}
	return "", false
}

// component reads one component of kind k after its open tag's name
// attribute has begun.
func (r *manifestReader) component(k int) (c Component, ok bool) {
	if c.Name, ok = r.value(); !ok || !r.lit(`"`) {
		return c, false
	}
	c.Exported = r.lit(exportedAttr)
	if !r.lit(">") {
		return c, false
	}
	return c, r.lit(componentClose[k])
}
