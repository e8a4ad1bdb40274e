package aida

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"aida/internal/wiki"
)

// batchWorld generates a small synthetic world plus a corpus of documents
// for batch-annotation tests.
func batchWorld(t testing.TB, docs int) (*KB, []string) {
	t.Helper()
	w := wiki.Generate(wiki.Config{Seed: 17, Entities: 300})
	corpus := w.GenerateCorpus(wiki.CoNLLSpec(docs, 23))
	texts := make([]string, len(corpus))
	for i, d := range corpus {
		texts[i] = d.Text
	}
	return w.KB, texts
}

// annotations runs AnnotateDoc under a background context and returns the
// document's annotations, failing on error.
func annotations(tb testing.TB, sys *System, text string, opts ...AnnotateOption) []Annotation {
	tb.Helper()
	doc, err := sys.AnnotateDoc(context.Background(), text, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return doc.Annotations
}

// corpusAnnotations runs AnnotateCorpus under a background context and
// returns each document's annotations in input order, failing on error or
// on a document whose Index is not its input position.
func corpusAnnotations(tb testing.TB, sys *System, docs []string, opts ...AnnotateOption) [][]Annotation {
	tb.Helper()
	out, err := sys.AnnotateCorpus(context.Background(), docs, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	anns := make([][]Annotation, len(out))
	for i, d := range out {
		if d.Index != i {
			tb.Fatalf("corpus doc %d has index %d", i, d.Index)
		}
		anns[i] = d.Annotations
	}
	return anns
}

// TestAnnotateBatchMatchesSequential is the headline determinism check:
// AnnotateCorpus at full parallelism must produce byte-identical
// annotations to the one-document-at-a-time loop, on both a cold and a
// warm engine.
func TestAnnotateBatchMatchesSequential(t *testing.T) {
	k, docs := batchWorld(t, 12)

	seq := New(k, WithMaxCandidates(10))
	want := make([][]Annotation, len(docs))
	for i, d := range docs {
		want[i] = annotations(t, seq, d)
	}

	for _, parallelism := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		sys := New(k, WithMaxCandidates(10))
		cold := corpusAnnotations(t, sys, docs, WithParallelism(parallelism))
		if !reflect.DeepEqual(want, cold) {
			t.Fatalf("parallelism=%d: cold batch diverges from sequential", parallelism)
		}
		warm := corpusAnnotations(t, sys, docs, WithParallelism(parallelism))
		if !reflect.DeepEqual(want, warm) {
			t.Fatalf("parallelism=%d: warm batch diverges from sequential", parallelism)
		}
	}
}

// TestAnnotateBatchWarmsEngine checks that batch annotation actually fills
// the shared engine (the cross-document reuse the engine exists for).
func TestAnnotateBatchWarmsEngine(t *testing.T) {
	k, docs := batchWorld(t, 8)
	sys := New(k, WithMaxCandidates(10))
	corpusAnnotations(t, sys, docs, WithParallelism(4))
	first := sys.Scorer().Stats()
	if first.Misses == 0 {
		t.Fatal("expected the engine to compute pair values during batch annotation")
	}
	corpusAnnotations(t, sys, docs, WithParallelism(4))
	second := sys.Scorer().Stats()
	if second.Misses != first.Misses {
		t.Errorf("second pass over the same docs recomputed %d pairs", second.Misses-first.Misses)
	}
	if second.Hits == 0 {
		t.Error("second pass should hit the warm cache")
	}
}

// TestAnnotateBoundedMatchesAnnotate pins AnnotateDoc under a
// WithParallelism bound to the default pipeline: the bound changes
// scheduling only.
func TestAnnotateBoundedMatchesAnnotate(t *testing.T) {
	k, docs := batchWorld(t, 4)
	sys := New(k, WithMaxCandidates(10))
	for _, d := range docs {
		want := annotations(t, sys, d)
		for _, bound := range []int{0, 1, 2, runtime.GOMAXPROCS(0)} {
			if got := annotations(t, sys, d, WithParallelism(bound)); !reflect.DeepEqual(want, got) {
				t.Fatalf("bound=%d: bounded AnnotateDoc diverges from the default", bound)
			}
		}
	}
}

// TestAnnotateAllMatchesBatch checks AnnotateStream yields the same
// annotations as AnnotateCorpus in input order, and honors early
// termination.
func TestAnnotateAllMatchesBatch(t *testing.T) {
	k, docs := batchWorld(t, 10)
	sys := New(k, WithMaxCandidates(10))
	want := corpusAnnotations(t, sys, docs)

	for _, parallelism := range []int{1, 4} {
		var got [][]Annotation
		var order []int
		for doc, err := range sys.AnnotateStream(context.Background(), slices.Values(docs), WithParallelism(parallelism)) {
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, doc.Index)
			got = append(got, doc.Annotations)
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("parallelism=%d: out-of-order yield %v", parallelism, order)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism=%d: streaming output diverges from batch", parallelism)
		}
	}

	// Early break must not deadlock or leak; we only check it stops.
	n := 0
	for range sys.AnnotateStream(context.Background(), slices.Values(docs), WithParallelism(4)) {
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("early break consumed %d docs", n)
	}
}

// TestSystemRelatednessReusesEngine pins the facade Relatedness to the
// engine (identical values across calls and to a fresh system).
func TestSystemRelatednessReusesEngine(t *testing.T) {
	k := demoKB()
	sys := New(k)
	jimmy, _ := k.EntityByName("Jimmy Page")
	zep, _ := k.EntityByName("Led Zeppelin")
	for _, kind := range []RelatednessKind{MW, KWCS, KPCS, KORE, KORELSHG, KORELSHF} {
		first := sys.Relatedness(kind, jimmy, zep)
		if again := sys.Relatedness(kind, jimmy, zep); again != first {
			t.Fatalf("%v: memoized value drifted: %v vs %v", kind, first, again)
		}
		if fresh := New(k).Relatedness(kind, jimmy, zep); fresh != first {
			t.Fatalf("%v: fresh system disagrees: %v vs %v", kind, first, fresh)
		}
	}
	if sys.Scorer().Stats().Hits == 0 {
		t.Error("repeated Relatedness calls should hit the engine cache")
	}
}
