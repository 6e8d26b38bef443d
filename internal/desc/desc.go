// Package desc is the description-analysis module of §III-D (the
// AutoCog role): it maps an app's Google Play description to the
// permissions the description implies, using ESA similarity between the
// description's noun/verb phrases and per-permission semantic profiles,
// and then maps permissions to private information via the sensitive
// tables. Info_desc of the paper is the result.
package desc

import (
	"slices"

	"ppchecker/internal/esa"
	"ppchecker/internal/nlp"
	"ppchecker/internal/sensitive"
)

// profile is the semantic model of one permission: the vocabulary apps
// use when their descriptions motivate that permission.
type profile struct {
	Permission string
	Text       string
}

// profiles lists the modelled permissions (every permission Table III
// exercises plus the other common ones).
var profiles = []profile{
	{sensitive.PermFineLocation,
		`precise location gps navigation route driving directions turn by turn tracking speed running cycling map position coordinates geofence field force location aware tasks`},
	{sensitive.PermCoarseLocation,
		`nearby local area city weather forecast region approximate location around you neighborhood stores restaurants close by`},
	{sensitive.PermReadContacts,
		`contacts address book friends phonebook contact list synchronize contacts birthdays of your contacts invite friends from contacts caller id block calls`},
	{sensitive.PermWriteContacts,
		`add contacts save new contact edit contacts merge duplicate contacts update address book write contacts`},
	{sensitive.PermGetAccounts,
		`sign in with your account google account sync across devices login account backup to account email account profile single sign on`},
	{sensitive.PermReadCalendar,
		`calendar events schedule meetings appointments agenda reminders sync calendar upcoming events planner`},
	{sensitive.PermCamera,
		`camera take photos scan qr code barcode scanner video recording selfie picture capture augmented reality lens`},
	{sensitive.PermRecordAudio,
		`microphone voice recording record audio speech recognition voice commands karaoke sing voice memo dictation`},
	{sensitive.PermReadSMS,
		`read sms text messages inbox verify code backup messages sms organizer`},
	{sensitive.PermPhoneState,
		`caller identification phone state sim card carrier device information imei`},
}

// Result is the description analysis output.
type Result struct {
	// Permissions inferred from the description, in profile order.
	Permissions []string
	// Infos is Info_desc: the information implied by those permissions.
	Infos []sensitive.Info
	// Evidence maps each inferred permission to the description phrase
	// that triggered it.
	Evidence map[string]string
}

// Analyzer maps descriptions to permissions.
type Analyzer struct {
	index     *esa.Index
	threshold float64
	// scope attributes the analyzer's ESA cache events to a per-run
	// stat scope (nil records globally only); see esa.StatScope.
	scope *esa.StatScope
}

// NewAnalyzer returns an analyzer using the default ESA index and the
// paper's 0.67 threshold.
func NewAnalyzer() *Analyzer {
	return &Analyzer{index: esa.Default(), threshold: esa.DefaultThreshold}
}

// WithESAStatScope returns a copy of the analyzer whose ESA cache
// events are additionally counted on sc (the profile-index classify
// calls included). The receiver is not modified.
func (a *Analyzer) WithESAStatScope(sc *esa.StatScope) *Analyzer {
	b := *a
	b.scope = sc
	return &b
}

// profileIndex is a dedicated ESA space over the permission profiles,
// so description phrases project onto permissions directly.
var profileIndex = func() *esa.Index {
	arts := make([]esa.Article, len(profiles))
	for i, p := range profiles {
		arts[i] = esa.Article{Title: p.Permission, Text: p.Text}
	}
	return esa.New(arts)
}()

// Analyze maps a description to permissions and information.
func (a *Analyzer) Analyze(description string) *Result {
	res := &Result{Evidence: map[string]string{}}
	matched := map[string]bool{}
	// One pooled tag buffer serves every sentence: candidate phrases
	// are materialized as fresh strings before the tokens are reused.
	pb := nlp.GetParseBuffer()
	defer pb.Release()
	var ps phraseScratch
	for _, sent := range nlp.SplitSentences(description) {
		// Gate: a sentence holding fewer than two profile-term
		// occurrences cannot yield a phrase with support ≥ 2 (every
		// supporting term, bigrams included, implies known-unigram
		// occurrences in the sentence), so tagging and chunking are
		// skipped. The differential test proves the gate inert.
		if profileIndex.KnownTermCount(sent, 2) < 2 {
			continue
		}
		toks := pb.Tag(sent)
		for _, phrase := range candidatePhrasesInto(&ps, toks) {
			perm, sim, support := profileIndex.ClassifyWithSupportScoped(phrase, a.scope)
			// Two supporting terms are required: a lone generic word
			// that happens to occur in only one profile would otherwise
			// project onto it with cosine 1.0.
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
	if len(infoSet) > 0 {
		res.Infos = make([]sensitive.Info, 0, len(infoSet))
		for info := range infoSet {
			res.Infos = append(res.Infos, info)
		}
		slices.Sort(res.Infos)
	}
	return res
}

// Unjustified returns the requested permissions from the given list
// that the description does not justify — Whyper/AutoCog's original
// question ("locate permissions that cannot be matched by
// descriptions", §VII). Only permissions with a semantic profile are
// judged; unprofiled permissions are skipped rather than accused.
func (a *Analyzer) Unjustified(requested []string, description string) []string {
	res := a.Analyze(description)
	implied := map[string]bool{}
	for _, p := range res.Permissions {
		implied[p] = true
	}
	profiled := map[string]bool{}
	for _, p := range profiles {
		profiled[p.Permission] = true
	}
	var out []string
	for _, perm := range requested {
		if profiled[perm] && !implied[perm] {
			out = append(out, perm)
		}
	}
	return out
}

// phraseScratch holds candidatePhrasesInto's working slices, reused
// across sentences. The phrase strings themselves are always fresh;
// only the containers recycle.
type phraseScratch struct {
	chunks []nlp.Chunk
	out    []string
	buf    []byte
}

// candidatePhrasesInto extracts the phrases to project: noun phrases
// plus verb+object bigrams ("scan barcodes", "record audio"). The
// returned slice aliases ps and is valid until the next call; phrases
// are assembled in one reused scratch buffer, so each costs a single
// allocation regardless of word count.
func candidatePhrasesInto(ps *phraseScratch, toks []nlp.Token) []string {
	chunks := nlp.ChunkNPsInto(ps.chunks[:0], toks)
	ps.chunks = chunks[:0]
	out := ps.out[:0]
	buf := ps.buf
	phrase := func(prefix string, c nlp.Chunk) (string, bool) {
		buf = buf[:0]
		if prefix != "" {
			buf = append(buf, prefix...)
			buf = append(buf, ' ')
		}
		wrote := false
		for i := c.Start; i < c.End; i++ {
			switch toks[i].Tag {
			case nlp.TagDT, nlp.TagPRPS:
				continue
			}
			if wrote {
				buf = append(buf, ' ')
			}
			buf = append(buf, toks[i].Lower...)
			wrote = true
		}
		return string(buf), wrote
	}
	for _, c := range chunks {
		if p, ok := phrase("", c); ok {
			out = append(out, p)
		}
	}
	// verb + object pairs
	for i := 0; i+1 < len(toks); i++ {
		if toks[i].Tag.IsVerb() {
			for _, c := range chunks {
				if c.Start == i+1 || c.Start == i+2 {
					p, _ := phrase(toks[i].Lower, c)
					out = append(out, p)
					break
				}
			}
		}
	}
	ps.out, ps.buf = out, buf
	return out
}
