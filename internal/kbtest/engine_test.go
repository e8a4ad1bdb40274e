package kbtest

import (
	"bytes"
	"encoding/gob"
	"os"
	"testing"

	"aida"
	"aida/internal/kb"
	"aida/internal/relatedness"
)

// evictionBudget is the deliberately tiny MaxProfileBytes the evicting
// engine mode runs under: far below the working set, so profiles (and
// their dependent memoized pairs) churn constantly while the pinned output
// must not move by a byte.
const evictionBudget = 4096

// warmKORE drives KORE relatedness over a deterministic entity sample so
// the engine interns keyphrase profiles. The golden pipeline's default AIDA
// method scores coherence with MW (pair cache only), so this is what puts
// profile state — the part the eviction budget governs — into play without
// touching annotation output.
func warmKORE(sys *aida.System, entities int) {
	n := sys.KB.NumEntities()
	if entities > n {
		entities = n
	}
	for i := 0; i < entities; i++ {
		for j := i + 1; j < entities; j++ {
			sys.Relatedness(aida.KORE, aida.EntityID(i), aida.EntityID(j))
		}
	}
}

// readExpected loads the committed golden bytes for a document.
func readExpected(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(ExpectedPath(name))
	if err != nil {
		t.Fatalf("missing expected output for %s: %v (run with -update)", name, err)
	}
	return want
}

// assertGolden runs the full pipeline over the corpus on sys and compares
// every document against the committed expectation byte for byte.
func assertGolden(t *testing.T, sys *aida.System, docs []Doc, mode string) {
	t.Helper()
	for _, d := range docs {
		got := AnnotateJSON(t, sys, d.Text)
		if !bytes.Equal(got, readExpected(t, d.Name)) {
			t.Errorf("%s (%s engine): output diverges from golden expectation\n got: %s",
				d.Name, mode, firstDiff(got, readExpected(t, d.Name)))
		}
	}
}

// TestGoldenCorpusEngineModes is the engine-lifecycle conformance suite:
// the golden corpus must come out byte-identical in all three engine modes
// — cold (fresh caches), warm-started from a snapshot written by a donor
// process, and evicting under a tiny MaxProfileBytes budget. Warm start
// and eviction change only work counters (hits, misses, evictions), never
// a single output byte; this is what lets a fleet snapshot/restore engines
// and cap their memory without any output drift.
func TestGoldenCorpusEngineModes(t *testing.T) {
	docs := Docs(t)
	for _, ns := range Stores() {
		t.Run(ns.Name, func(t *testing.T) {
			t.Run("cold", func(t *testing.T) {
				assertGolden(t, NewSystem(ns.Store), docs, "cold")
			})

			t.Run("warm", func(t *testing.T) {
				assertWarmGolden(t, NewSystem(ns.Store), warmSnapshot(t, docs), docs, "warm")
			})

			t.Run("evicting", func(t *testing.T) {
				sys := NewSystem(ns.Store)
				sys.Scorer().SetMaxProfileBytes(evictionBudget)
				// KORE traffic churns profiles through the tiny budget
				// while the corpus is annotated; output must not move.
				warmKORE(sys, 40)
				assertGolden(t, sys, docs, "evicting")
				st := sys.Scorer().Stats()
				if st.Evictions == 0 {
					t.Errorf("budget of %d bytes triggered no evictions over the corpus: %+v", evictionBudget, st)
				}
				if st.ProfileBytes > evictionBudget {
					t.Errorf("accounted profile bytes %d exceed the %d budget", st.ProfileBytes, evictionBudget)
				}
			})
		})
	}
}

// warmSnapshot annotates the golden corpus (filling the pair cache) and
// serves KORE traffic (interning profiles) on a donor System over the local
// KB, then returns its engine snapshot.
func warmSnapshot(t *testing.T, docs []Doc) []byte {
	t.Helper()
	donor := NewSystem(GoldenKB())
	for _, d := range docs {
		AnnotateJSON(t, donor, d.Text)
	}
	warmKORE(donor, 40)
	var snap bytes.Buffer
	if err := donor.SaveEngine(&snap); err != nil {
		t.Fatalf("SaveEngine: %v", err)
	}
	return snap.Bytes()
}

// assertWarmGolden warm-starts sys from snap and requires the golden bytes
// with every relatedness value served from the restored cache.
func assertWarmGolden(t *testing.T, sys *aida.System, snap []byte, docs []Doc, mode string) {
	t.Helper()
	if err := sys.LoadEngine(bytes.NewReader(snap)); err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if st := sys.Scorer().Stats(); st.Profiles == 0 {
		t.Fatalf("%s warm start interned nothing: %+v", mode, st)
	}
	assertGolden(t, sys, docs, mode)
	if misses := sys.Scorer().Stats().Misses; misses != 0 {
		t.Fatalf("%s warm start recomputed %d relatedness values", mode, misses)
	}
}

// TestGoldenCorpusWarmStartAcrossShardLayouts pins snapshot portability at
// the system level: a snapshot written over the local KB warm-starts a
// System over a 2-shard fleet (the fingerprint covers content, not layout)
// and still reproduces the golden bytes.
func TestGoldenCorpusWarmStartAcrossShardLayouts(t *testing.T) {
	docs := Docs(t)
	snap := warmSnapshot(t, docs)
	fleet := StartFleet(t, GoldenKB(), 2, 1)
	assertWarmGolden(t, NewSystem(fleet.Dial(t, kb.RemoteOptions{})), snap, docs, "local-to-fleet")
}

// Engine snapshot v1 as writers that grouped interned profiles per KB shard
// encoded it: the header names the writer's shard count, and Profiles
// holds one ascending group per shard. The gob field names match the
// current format, which drops KBShards and writes one group.
type (
	v1Header struct {
		Magic         string
		Version       int
		KBFingerprint uint64
		KBShards      int
	}
	v1Pair struct {
		Kind relatedness.Kind
		A, B kb.EntityID
		V    float64
	}
	v1Body struct {
		Profiles [][]kb.EntityID
		Pairs    []v1Pair
	}
)

// TestGoldenCorpusWarmStartFromShardGroupedSnapshot pins compatibility
// with v1 snapshots written at 4 KB shards: their profiles come split into
// 4 groups, and restoring one must still give the golden bytes with zero
// misses.
func TestGoldenCorpusWarmStartFromShardGroupedSnapshot(t *testing.T) {
	docs := Docs(t)
	dec := gob.NewDecoder(bytes.NewReader(warmSnapshot(t, docs)))
	var h v1Header
	var body v1Body
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("decode body: %v", err)
	}
	if len(body.Profiles) != 1 {
		t.Fatalf("snapshot writes %d profile groups, want 1", len(body.Profiles))
	}
	const shards = 4
	h.KBShards = shards
	grouped := make([][]kb.EntityID, shards)
	for _, e := range body.Profiles[0] {
		g := kb.EntityShard(e, shards)
		grouped[g] = append(grouped[g], e)
	}
	body.Profiles = grouped
	var snap bytes.Buffer
	enc := gob.NewEncoder(&snap)
	if err := enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	assertWarmGolden(t, NewSystem(GoldenKB()), snap.Bytes(), docs, "shard-grouped")
}
