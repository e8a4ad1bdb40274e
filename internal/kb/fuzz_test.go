package kb

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzNormalizeName checks the case rules of Sec. 3.3.2: names of ≤ 3
// characters stay case-sensitive (short names like "MJ" vs "mj" carry
// case signal), longer names are case-folded; and normalization is
// idempotent, which the dictionary relies on (keys are normalized once at
// build time and once per lookup).
func FuzzNormalizeName(f *testing.F) {
	// Seed from the dictionary corpus plus the boundary shapes.
	k := fuzzKB()
	for _, name := range k.Names() {
		f.Add(name)
	}
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "MJ", "mj", "Jordan", "Äbç", "日本語х", "  x  "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, surface string) {
		got := NormalizeName(surface)
		if utf8.RuneCountInString(surface) <= 3 {
			if got != surface {
				t.Fatalf("NormalizeName(%q) = %q; names of ≤ 3 runes must stay case-sensitive", surface, got)
			}
		} else if want := strings.ToUpper(surface); got != want {
			t.Fatalf("NormalizeName(%q) = %q, want case-folded %q", surface, got, want)
		}
		if again := NormalizeName(got); again != got {
			t.Fatalf("NormalizeName not idempotent: %q → %q → %q", surface, got, again)
		}
	})
}

func fuzzKB() *KB {
	b := NewBuilder()
	ids := make([]EntityID, 0, 24)
	for _, e := range []struct {
		name, domain string
	}{
		{"Jordan Henderson", "sports"}, {"Jordan (country)", "geography"},
		{"Michael Jordan", "sports"}, {"Paris", "geography"},
		{"Paris Hilton", "entertainment"}, {"Springfield (Illinois)", "geography"},
		{"Springfield (Massachusetts)", "geography"}, {"Kashmir (song)", "music"},
		{"Kashmir", "geography"}, {"Led Zeppelin", "music"},
		{"MJ (album)", "music"}, {"Amman", "geography"},
	} {
		ids = append(ids, b.AddEntity(e.name, e.domain))
	}
	// Heavily ambiguous rows with skewed counts (Zipf-ish), including an
	// exact-tie row that exercises the id tiebreak.
	b.AddName("Jordan", ids[0], 40)
	b.AddName("Jordan", ids[1], 90)
	b.AddName("Jordan", ids[2], 160)
	b.AddName("Paris", ids[4], 35)
	b.AddName("Springfield", ids[5], 55)
	b.AddName("Springfield", ids[6], 55) // exact tie: order must fall to id
	b.AddName("Kashmir", ids[7], 70)
	b.AddName("MJ", ids[2], 30)
	b.AddName("MJ", ids[10], 30)
	for _, id := range ids {
		b.AddKeyphrase(id, "shared context phrase")
	}
	return b.Build()
}

// FuzzCandidates checks the dictionary lookup invariants for arbitrary
// surfaces: priors form a probability distribution over the candidate set
// (sum ≈ 1), the list is sorted by descending prior with ties by ascending
// id, every entity id is in range, and lookups are deterministic.
func FuzzCandidates(f *testing.F) {
	k := fuzzKB()
	for _, name := range k.Names() {
		f.Add(name)
	}
	f.Add("jordan")
	f.Add("JORDAN")
	f.Add("no such name")
	f.Add("")
	f.Fuzz(func(t *testing.T, surface string) {
		got := k.Candidates(surface)
		if again := k.Candidates(surface); !reflect.DeepEqual(again, got) {
			t.Fatalf("Candidates(%q) not deterministic", surface)
		}
		if len(got) == 0 {
			if got != nil {
				t.Fatalf("empty candidate list must be nil, got %#v", got)
			}
			return
		}
		if !k.HasName(NormalizeName(surface)) {
			t.Fatalf("Candidates(%q) non-empty but HasName false", surface)
		}
		sum := 0.0
		for i, c := range got {
			sum += c.Prior
			if c.Entity < 0 || int(c.Entity) >= k.NumEntities() {
				t.Fatalf("candidate entity %d out of range", c.Entity)
			}
			if c.Prior < 0 || c.Prior > 1 {
				t.Fatalf("prior %v outside [0,1]", c.Prior)
			}
			if c.Count <= 0 {
				t.Fatalf("candidate count %d not positive", c.Count)
			}
			if i > 0 {
				prev := got[i-1]
				if c.Prior > prev.Prior {
					t.Fatalf("Candidates(%q) not sorted by prior: %v after %v", surface, c.Prior, prev.Prior)
				}
				if c.Prior == prev.Prior && c.Entity <= prev.Entity {
					t.Fatalf("Candidates(%q) tie not broken by ascending id", surface)
				}
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Candidates(%q) priors sum to %v, want 1", surface, sum)
		}
	})
}
