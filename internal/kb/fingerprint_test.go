package kb

import (
	"bytes"
	"testing"
)

// TestFingerprintShardLayoutIndependent pins the portability contract of
// engine snapshots: the fingerprint hashes repository content through the
// Store read surface, so the content walk over a fleet of any width agrees
// with the local KB's.
func TestFingerprintShardLayoutIndependent(t *testing.T) {
	k := buildFleetKB(t)
	want := k.Fingerprint()
	if want == 0 {
		t.Fatal("fingerprint of a non-empty KB is 0")
	}
	for _, n := range []int{1, 2, 3, 4} {
		r := dialFleet(t, startFleet(t, k, n, 1, nil), RemoteOptions{})
		if got := fingerprintOf(r); got != want {
			t.Fatalf("content walk over a %d-shard fleet = %016x, want %016x", n, got, want)
		}
	}
	// Memoized: repeated calls agree.
	if again := k.Fingerprint(); again != want {
		t.Fatalf("fingerprint not stable: %016x vs %016x", again, want)
	}
}

// TestFingerprintSurvivesPersistRoundTrip: a loaded snapshot carries the
// same content, so it must carry the same fingerprint.
func TestFingerprintSurvivesPersistRoundTrip(t *testing.T) {
	k := buildFleetKB(t)
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Fingerprint(), k.Fingerprint(); got != want {
		t.Fatalf("fingerprint after Save/Load = %016x, want %016x", got, want)
	}
}

// TestFingerprintDistinguishesContent: repositories differing in any
// scored ingredient — an extra link, a different keyphrase, a renamed
// entity, an extra dictionary row — fingerprint differently.
func TestFingerprintDistinguishesContent(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder()
		a := b.AddEntity("Alpha", "music", "person")
		c := b.AddEntity("Beta", "science", "person")
		b.AddKeyphrase(a, "rock guitarist")
		b.AddKeyphrase(c, "quantum theory")
		b.AddLink(a, c)
		return b
	}
	ref := base().Build().Fingerprint()

	variants := map[string]func() *KB{
		"extra-link": func() *KB {
			b := base()
			b.AddLink(1, 0)
			return b.Build()
		},
		"extra-phrase": func() *KB {
			b := base()
			b.AddKeyphrase(0, "studio album")
			return b.Build()
		},
		"extra-entity": func() *KB {
			b := base()
			b.AddEntity("Gamma", "misc")
			return b.Build()
		},
		"extra-name": func() *KB {
			b := base()
			b.AddName("The Alpha", 0, 3)
			return b.Build()
		},
		"different-count": func() *KB {
			b := base()
			b.AddName("Alpha", 1, 2) // shifts priors on an existing row
			return b.Build()
		},
	}
	for name, build := range variants {
		if got := build().Fingerprint(); got == ref {
			t.Errorf("%s: fingerprint collides with the base repository (%016x)", name, got)
		}
	}
	// Rebuilding identical content reproduces the fingerprint.
	if got := base().Build().Fingerprint(); got != ref {
		t.Fatalf("identical content fingerprints differ: %016x vs %016x", got, ref)
	}
}
