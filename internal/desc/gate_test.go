package desc

import (
	"reflect"
	"sort"
	"testing"

	"ppchecker/internal/nlp"
	"ppchecker/internal/sensitive"
)

// analyzeUngated replicates Analyze without the known-term sentence
// gate — the reference the gated path must equal exactly.
func (a *Analyzer) analyzeUngated(description string) *Result {
	res := &Result{Evidence: map[string]string{}}
	matched := map[string]bool{}
	var ps phraseScratch
	for _, sent := range nlp.SplitSentences(description) {
		toks := nlp.TagText(sent)
		for _, phrase := range candidatePhrasesInto(&ps, toks) {
			perm, sim, support := profileIndex.ClassifyWithSupportScoped(phrase, a.scope)
			if perm == "" || sim < a.threshold || support < 2 {
				continue
			}
			if !matched[perm] {
				matched[perm] = true
				res.Evidence[perm] = phrase
			}
		}
	}
	infoSet := map[sensitive.Info]bool{}
	for _, p := range profiles {
		if !matched[p.Permission] {
			continue
		}
		res.Permissions = append(res.Permissions, p.Permission)
		for _, info := range sensitive.InfoForPermission(p.Permission) {
			infoSet[info] = true
		}
	}
	for info := range infoSet {
		res.Infos = append(res.Infos, info)
	}
	sort.Slice(res.Infos, func(i, j int) bool { return res.Infos[i] < res.Infos[j] })
	return res
}

// TestGateInert: the known-term gate never changes the analysis on a
// corpus of descriptions spanning matched, near-miss, and unrelated
// text.
func TestGateInert(t *testing.T) {
	descriptions := []string{
		"Turn by turn navigation with precise GPS location and driving directions.",
		"A simple flashlight app. No frills.",
		"Sync your contacts and address book across devices. Invite friends from contacts.",
		"Scan QR codes and barcodes with your camera. Take photos and record video.",
		"Record audio voice memos with the microphone. Speech recognition included.",
		"Read SMS text messages and verify code automatically.",
		"Check the weather forecast for nearby cities and your local area.",
		"This game is really fun. Play offline. Location location.",
		"Calendar events, schedule meetings, appointments and reminders.",
		"Sign in with your Google account and sync across devices.",
		"gps",           // single known word: gated, but also sub-support
		"location gps",  // two known words
		"the of and to", // stopwords only
		"",              // empty
		"Ödüllü uygulama. Konumunuzu takip eder.", // non-English
	}
	a := NewAnalyzer()
	anyMatched := false
	for _, d := range descriptions {
		got, want := a.Analyze(d), a.analyzeUngated(d)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("gate changed analysis of %q:\ngot  %+v\nwant %+v", d, got, want)
		}
		if len(want.Permissions) > 0 {
			anyMatched = true
		}
	}
	if !anyMatched {
		t.Fatal("corpus matched nothing; test is vacuous")
	}
}
