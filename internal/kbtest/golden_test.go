package kbtest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"aida"
)

// TestGoldenCorpus is the conformance suite of the knowledge base: the
// full annotate pipeline over the committed golden corpus must produce
// output — annotations, candidate priors and scores, confidence, work
// counters — byte-identical to the committed expectation. The fleet suites
// in remote_test.go pin the same bytes over RemoteStore. Run with -update
// to regenerate the expectations from the unsharded KB.
func TestGoldenCorpus(t *testing.T) {
	docs := Docs(t)
	if *Update {
		sys := NewSystem(GoldenKB())
		if err := os.MkdirAll(filepath.Join("testdata", "golden", "expected"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := os.WriteFile(ExpectedPath(d.Name), AnnotateJSON(t, sys, d.Text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Log("regenerated expected outputs; re-run without -update to verify")
	}
	for _, ns := range Stores() {
		t.Run(ns.Name, func(t *testing.T) {
			sys := NewSystem(ns.Store)
			for _, d := range docs {
				want, err := os.ReadFile(ExpectedPath(d.Name))
				if err != nil {
					t.Fatalf("missing expected output for %s: %v (run with -update)", d.Name, err)
				}
				got := AnnotateJSON(t, sys, d.Text)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: output diverges from golden expectation\n got: %s\nwant: %s",
						d.Name, firstDiff(got, want), d.Name+".json")
				}
			}
		})
	}
}

// TestGoldenCorpusParallel re-runs the conformance corpus through the
// concurrent corpus API: fan-out must not change a single byte, and under
// -race this doubles as a concurrency test (many goroutines hitting the
// same store and intern tables).
func TestGoldenCorpusParallel(t *testing.T) {
	docs := Docs(t)
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	for _, ns := range Stores() {
		t.Run(ns.Name, func(t *testing.T) {
			sys := NewSystem(ns.Store)
			out, err := sys.AnnotateCorpus(context.Background(), texts, aida.WithParallelism(4))
			if err != nil {
				t.Fatalf("AnnotateCorpus: %v", err)
			}
			// Compare against the sequential single-document path of the
			// same store (already pinned to the golden bytes above).
			for i, d := range docs {
				seq, err := sys.AnnotateDoc(context.Background(), d.Text)
				if err != nil {
					t.Fatalf("AnnotateDoc: %v", err)
				}
				if len(out[i].Annotations) != len(seq.Annotations) {
					t.Fatalf("%s: parallel/sequential annotation counts diverge", d.Name)
				}
				for j := range seq.Annotations {
					if out[i].Annotations[j] != seq.Annotations[j] {
						t.Fatalf("%s: annotation %d diverges under parallelism:\n got %+v\nwant %+v",
							d.Name, j, out[i].Annotations[j], seq.Annotations[j])
					}
				}
			}
		})
	}
}

// firstDiff renders the neighborhood of the first diverging byte, so a
// conformance failure points at the field instead of dumping whole files.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(got) {
		hi = len(got)
	}
	return "...at byte " + strconv.Itoa(i) + ": " + string(got[lo:hi]) + "..."
}
