package libdetect

import (
	"testing"

	"ppchecker/internal/dex"
)

// TestRegistryCounts pins the registry to the paper's data set: 52 ad
// libs, 9 social libs, 20 development tools (§V-A).
func TestRegistryCounts(t *testing.T) {
	if got := len(ByCategory(CategoryAd)); got != 52 {
		t.Errorf("ad libs = %d, want 52", got)
	}
	if got := len(ByCategory(CategorySocial)); got != 9 {
		t.Errorf("social libs = %d, want 9", got)
	}
	if got := len(ByCategory(CategoryDev)); got != 20 {
		t.Errorf("dev tools = %d, want 20", got)
	}
	if got := len(Registry()); got != 81 {
		t.Errorf("total = %d, want 81", got)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	names := map[string]bool{}
	prefixes := map[string]bool{}
	for _, l := range Registry() {
		if names[l.Name] {
			t.Errorf("duplicate name %q", l.Name)
		}
		names[l.Name] = true
		if prefixes[l.Prefix] {
			t.Errorf("duplicate prefix %q", l.Prefix)
		}
		prefixes[l.Prefix] = true
		if l.Prefix == "" || l.Name == "" {
			t.Errorf("empty entry: %+v", l)
		}
	}
}

func TestDetect(t *testing.T) {
	d, err := dex.Assemble(`
.class Lcom/example/app/Main;
.end class
.class Lcom/google/ads/AdView;
.end class
.class Lcom/unity3d/player/UnityPlayer;
.end class
.class Lcom/facebook/Session;
.end class
`)
	if err != nil {
		t.Fatal(err)
	}
	libs := Detect(d)
	if len(libs) != 3 {
		t.Fatalf("detected = %+v", libs)
	}
	want := []string{"AdMob", "Facebook", "Unity3d"}
	for i, l := range libs {
		if l.Name != want[i] {
			t.Errorf("lib[%d] = %q, want %q", i, l.Name, want[i])
		}
	}
}

func TestDetectNone(t *testing.T) {
	d, err := dex.Assemble(".class Lcom/example/app/Main;\n.end class\n")
	if err != nil {
		t.Fatal(err)
	}
	if libs := Detect(d); len(libs) != 0 {
		t.Fatalf("detected = %+v", libs)
	}
}

func TestByName(t *testing.T) {
	l, ok := ByName("Unity3d")
	if !ok || l.Category != CategoryDev {
		t.Fatalf("ByName = %+v ok=%v", l, ok)
	}
	if _, ok := ByName("Nonexistent"); ok {
		t.Fatal("unknown lib found")
	}
}

// ByCategory returns the registry entries of one category.
func ByCategory(c Category) []Library {
	var out []Library
	for _, l := range registry {
		if l.Category == c {
			out = append(out, l)
		}
	}
	return out
}
