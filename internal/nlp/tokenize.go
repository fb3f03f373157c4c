// Package nlp provides the text-processing primitives of the paper's
// auto-classification pipeline (§II-C): tokenization, stop-word removal,
// and Porter stemming. The tfidf, nmf, and word2vec subpackages build on
// these to turn bug descriptions into feature vectors.
package nlp

import (
	"strings"
	"unicode"
)

// Tokenizer splits raw bug-report text into normalized tokens.
// The zero value is ready to use with default behaviour (lowercase,
// keep alphanumeric runs, drop pure numbers shorter than 2 digits).
type Tokenizer struct {
	// KeepNumbers preserves purely numeric tokens (issue IDs, ports).
	KeepNumbers bool
	// MinLen drops tokens shorter than this many runes (default 2).
	MinLen int
}

// Tokenize splits text into lowercase tokens. Runs of letters and
// digits form tokens; everything else separates. Embedded identifiers
// like "NullPointerException" stay single tokens (lowercased); paths
// and dotted names split on the punctuation.
func (t Tokenizer) Tokenize(text string) []string {
	minLen := t.MinLen
	if minLen == 0 {
		minLen = 2
	}
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := b.String()
		b.Reset()
		if len([]rune(tok)) < minLen {
			return
		}
		if !t.KeepNumbers && isNumeric(tok) {
			return
		}
		tokens = append(tokens, tok)
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

func isNumeric(s string) bool {
	for _, r := range s {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(s) > 0
}

// defaultStopwords is a compact English stop-word list augmented with
// boilerplate that bug trackers inject into every report.
var defaultStopwords = map[string]struct{}{}

func init() {
	// Stop-word initialization is pure data; this init has no side
	// effects beyond populating the package-level set.
	for _, w := range []string{
		"a", "an", "the", "and", "or", "but", "if", "then", "else",
		"is", "are", "was", "were", "be", "been", "being",
		"have", "has", "had", "do", "does", "did", "will", "would",
		"can", "could", "should", "may", "might", "must", "shall",
		"i", "we", "you", "he", "she", "it", "they", "them", "this",
		"that", "these", "those", "my", "our", "your", "its", "their",
		"of", "in", "on", "at", "to", "from", "by", "with", "about",
		"as", "for", "into", "through", "during", "before", "after",
		// "up", "down", "over" and similar are deliberately absent:
		// they are domain-meaningful in networking (link up/down).
		"above", "below", "again", "further", "once", "here", "there", "when", "where",
		"why", "how", "all", "any", "both", "each", "few", "more",
		"most", "other", "some", "such", "no", "nor", "not", "only",
		"own", "same", "so", "than", "too", "very", "just", "also",
		"while", "which", "who", "whom", "what", "because", "until",
		"against", "between", "am", "get", "got", "see", "seen", "use",
		"used", "using", "via", "per", "etc", "eg", "ie",
		// Tracker boilerplate.
		"please", "thanks", "hi", "hello", "issue", "bug", "report",
		"reported", "steps", "reproduce", "expected", "actual",
		"version", "attached", "attachment", "screenshot",
	} {
		defaultStopwords[w] = struct{}{}
	}
}

// IsStopword reports whether the (already lowercased) token is in the
// default stop-word list.
func IsStopword(tok string) bool {
	_, ok := defaultStopwords[tok]
	return ok
}

// RemoveStopwords filters the default stop-word list out of tokens,
// returning a new slice.
func RemoveStopwords(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}
