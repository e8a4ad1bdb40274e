package kb

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestPersistRoundTrip pins that Save → Load reproduces the KB exactly:
// identical Candidates (priors included), entities, dictionary membership
// and IDF tables, which is what lets every shard host of a fleet load the
// same snapshot.
func TestPersistRoundTrip(t *testing.T) {
	k := buildFleetKB(t)
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got, want := loaded.NumEntities(), k.NumEntities(); got != want {
		t.Fatalf("NumEntities = %d, want %d", got, want)
	}
	if got, want := loaded.Names(), k.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names diverge after round-trip:\n got %v\nwant %v", got, want)
	}
	for _, name := range k.Names() {
		if got, want := loaded.Candidates(name), k.Candidates(name); !reflect.DeepEqual(got, want) {
			t.Fatalf("Candidates(%q) diverge after round-trip:\n got %+v\nwant %+v", name, got, want)
		}
	}
	for id := 0; id < k.NumEntities(); id++ {
		want := k.Entity(EntityID(id))
		got := loaded.Entity(EntityID(id))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Entity(%d) diverges after round-trip:\n got %+v\nwant %+v", id, got, want)
		}
		if byName, ok := loaded.EntityByName(want.Name); !ok || byName != want.ID {
			t.Fatalf("EntityByName(%q) = (%d, %v) after round-trip", want.Name, byName, ok)
		}
		for _, kp := range want.Keyphrases {
			if g, w := loaded.PhraseIDF(kp.Phrase), k.PhraseIDF(kp.Phrase); g != w {
				t.Fatalf("PhraseIDF(%q) = %v, want %v", kp.Phrase, g, w)
			}
			for _, word := range kp.Words {
				if g, w := loaded.WordIDF(word), k.WordIDF(word); g != w {
					t.Fatalf("WordIDF(%q) = %v, want %v", word, g, w)
				}
			}
		}
	}
}

// TestLoadErrors covers the persistence error paths: truncated streams,
// corrupt payloads and empty input must surface as errors, never as a
// half-initialized KB.
func TestLoadErrors(t *testing.T) {
	k := buildFleetKB(t)
	var buf bytes.Buffer
	if err := k.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := buf.Bytes()
	cases := map[string][]byte{
		"empty":       {},
		"garbage":     []byte("not a gob stream at all"),
		"truncated":   full[:len(full)/3],
		"single-byte": full[:1],
	}
	for name, data := range cases {
		if kb, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("Load(%s) = %v, want error", name, kb)
		}
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Error("Load from empty reader succeeded, want error")
	}
}

// TestSaveToFailingWriter covers the Save error path.
func TestSaveToFailingWriter(t *testing.T) {
	k := buildFleetKB(t)
	if err := k.Save(failingWriter{}); err == nil {
		t.Fatal("Save to failing writer succeeded, want error")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) {
	return 0, errWriteRefused
}

var errWriteRefused = &writeRefusedError{}

type writeRefusedError struct{}

func (*writeRefusedError) Error() string { return "write refused" }
