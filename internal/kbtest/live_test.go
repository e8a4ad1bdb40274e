package kbtest

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aida"
	"aida/internal/kb"
)

// TestGoldenCorpusOverlay is the live-update conformance gate: an Overlay
// over the golden KB plus GoldenDelta must be indistinguishable — same
// fingerprint, byte-identical pipeline output on every golden document —
// from a full Rebuild containing the same facts, over the in-memory KB and
// over a 4-shard remote fleet.
func TestGoldenCorpusOverlay(t *testing.T) {
	docs := Docs(t)
	delta := GoldenDelta()
	full, err := kb.Rebuild(GoldenKB(), delta)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			var base, rebuilt kb.Store = GoldenKB(), full
			if n > 1 {
				base = StartFleet(t, GoldenKB(), n, 1).Dial(t, kb.RemoteOptions{})
				rebuilt = StartFleet(t, full, n, 1).Dial(t, kb.RemoteOptions{})
			}
			ov, err := kb.NewOverlay(base, delta)
			if err != nil {
				t.Fatalf("NewOverlay: %v", err)
			}
			if got, want := ov.Fingerprint(), rebuilt.Fingerprint(); got != want {
				t.Fatalf("overlay fingerprint %016x != rebuild fingerprint %016x", got, want)
			}
			sysOv, sysRe := NewSystem(ov), NewSystem(rebuilt)
			for _, d := range docs {
				got := AnnotateJSON(t, sysOv, d.Text)
				want := AnnotateJSON(t, sysRe, d.Text)
				if !bytes.Equal(got, want) {
					t.Errorf("doc %s: overlay output differs from rebuild output", d.Name)
				}
			}
		})
	}
}

// TestApplyDeltaConcurrent drives annotation traffic through a System
// while ApplyDelta races it and asserts the no-torn-reads contract: every
// document's output matches exactly the pre-apply generation or the
// post-apply generation, never a mixture — and after the apply settles,
// everything is on the new generation, with the added entity linkable by
// name in the very next request. Run with -race, this also proves the
// generation swap is data-race free.
func TestApplyDeltaConcurrent(t *testing.T) {
	docs := Docs(t)
	delta := GoldenDelta()

	// The two legal outputs per document: generation 0 (golden KB) and
	// generation 1 (delta applied), computed on separate pristine systems.
	expect0 := make(map[string][]byte, len(docs))
	expect1 := make(map[string][]byte, len(docs))
	sys0 := NewSystem(GoldenKB())
	full, err := kb.Rebuild(GoldenKB(), delta)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	sys1 := NewSystem(full)
	for _, d := range docs {
		expect0[d.Name] = AnnotateJSON(t, sys0, d.Text)
		expect1[d.Name] = AnnotateJSON(t, sys1, d.Text)
	}
	changed := 0
	for _, d := range docs {
		if !bytes.Equal(expect0[d.Name], expect1[d.Name]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("GoldenDelta changes no golden document output; the torn-read check would be vacuous")
	}

	sys := NewSystem(GoldenKB())
	ctx := context.Background()
	const readers = 8
	const rounds = 6
	errc := make(chan error, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i := 0; i < rounds; i++ {
				d := docs[(r+i)%len(docs)]
				doc, err := sys.AnnotateDoc(ctx, d.Text, ConformanceOptions()...)
				if err != nil {
					errc <- fmt.Errorf("reader %d doc %s: %v", r, d.Name, err)
					return
				}
				got, err := MarshalDoc(doc)
				if err != nil {
					errc <- fmt.Errorf("reader %d doc %s: marshal: %v", r, d.Name, err)
					return
				}
				if !bytes.Equal(got, expect0[d.Name]) && !bytes.Equal(got, expect1[d.Name]) {
					errc <- fmt.Errorf("reader %d doc %s: torn read — output matches neither generation", r, d.Name)
					return
				}
			}
			errc <- nil
		}(r)
	}
	close(start)
	receipt, err := sys.ApplyDelta(delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if receipt.Generation != 1 || receipt.Entities != 2 {
		t.Fatalf("unexpected receipt: %+v", receipt)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}

	// Applying the same delta again must be rejected (it was built against
	// generation 0) and change nothing.
	if _, err := sys.ApplyDelta(delta); err == nil {
		t.Error("re-applying a generation-0 delta against generation 1 should fail validation")
	}
	if got := sys.Generation(); got != 1 {
		t.Fatalf("generation after rejected re-apply = %d, want 1", got)
	}

	// After the apply settles, every document is on generation 1 …
	for _, d := range docs {
		if got := AnnotateJSON(t, sys, d.Text); !bytes.Equal(got, expect1[d.Name]) {
			t.Errorf("doc %s: post-apply output does not match the new generation", d.Name)
		}
	}
	// … and the graduated entity is linkable by name immediately.
	wantID, ok := sys.Store().EntityByName(GoldenDeltaEntityA)
	if !ok {
		t.Fatalf("entity %q not resolvable after apply", GoldenDeltaEntityA)
	}
	doc, err := sys.AnnotateDoc(ctx, "Quarterly reports about "+GoldenDeltaEntityA+" circulated widely today.")
	if err != nil {
		t.Fatalf("AnnotateDoc: %v", err)
	}
	linked := false
	for _, a := range doc.Annotations {
		if strings.Contains(a.Mention.Text, GoldenDeltaEntityA) && a.Entity == wantID {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("added entity %q (id %d) not linked in the next request; annotations: %+v",
			GoldenDeltaEntityA, wantID, doc.Annotations)
	}
}

// TestOverlayCallersSeeOneGeneration pins the Live() snapshot contract:
// the pair returned before an apply stays internally consistent (old
// store, old engine) while the System serves the new generation.
func TestOverlayCallersSeeOneGeneration(t *testing.T) {
	sys := NewSystem(GoldenKB())
	before := sys.Live()
	if before.Stats.Generation != 0 {
		t.Fatalf("fresh system at generation %d", before.Stats.Generation)
	}
	if _, err := sys.ApplyDelta(GoldenDelta()); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	after := sys.Live()
	if after.Stats.Generation != 1 {
		t.Fatalf("generation = %d, want 1", after.Stats.Generation)
	}
	if before.Store.NumEntities() == after.Store.NumEntities() {
		t.Fatal("apply did not grow the serving store")
	}
	if before.Store.NumEntities() != GoldenKB().NumEntities() {
		t.Fatal("pre-apply snapshot was mutated by the apply")
	}
	if before.Engine == after.Engine {
		t.Fatal("engine was not swapped with the store")
	}
	var _ aida.Store = after.Store // the snapshot exposes the public Store surface
}
