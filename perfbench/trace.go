package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aida"
	"aida/internal/disambig"
	"aida/internal/emerge"
	"aida/internal/kb"
	"aida/internal/ner"
	"aida/internal/relatedness"
	"aida/internal/tokenizer"
)

// The traced run replays, from the benchmark's own code, the calls the
// aida package makes for one document (System.annotateOne): tokenize,
// recognize, build the problem (candidate materialization), disambiguate,
// and CONF when the request asks for confidence. Each call is a span; the
// spans of one document share its request id and hang under a "doc" root.
// Counters from the layers' own statistics (Scorer.Stats,
// RemoteStore.Stats, /v1/stats) are read before and after.

// Span names, one per layer call the replay makes.
const (
	spanDoc       = "doc"
	spanTokenize  = "tokenizer.Tokenize"
	spanContent   = "tokenizer.ContentWordsFromTokens"
	spanRecognize = "ner.Recognizer.RecognizeTokens"
	spanProblem   = "disambig.NewProblemFromWords"
	spanSolve     = "disambig.Method.Disambiguate"
	spanConf      = "emerge.CONF"
)

// span is one timed layer call. Parent is the id of the enclosing span
// within the same request (-1 for the root); times are nanoseconds since
// the traced pass started.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// target is the (store, engine) pair a replayed request runs against: a
// KB generation, or a domain layer over one.
type target struct {
	store  kb.Store
	engine *relatedness.Scorer
}

// replayReq is one request to replay, resolved the way the aida package
// resolves a RequestSpec.
type replayReq struct {
	text      string
	tgt       *target
	ctxModel  *disambig.ContextModel
	confIters int
	confSeed  int64
}

// layerCounts are work counts summed over replayed requests.
type layerCounts struct {
	mentions, candidates, comparisons, graphEntities int64
}

func (c *layerCounts) add(o layerCounts) {
	c.mentions += o.mentions
	c.candidates += o.candidates
	c.comparisons += o.comparisons
	c.graphEntities += o.graphEntities
}

// replayed is the outcome of one replayed request.
type replayed struct {
	digest [32]byte
	spans  []span
	counts layerCounts
}

// replayOne runs one request through the layer calls, recording a span
// around each.
func replayOne(ctx context.Context, t0 time.Time, id int, r replayReq, method aida.Method, maxCands int) replayed {
	var out replayed
	now := func() int64 { return int64(time.Since(t0)) }
	out.spans = append(out.spans, span{Req: id, ID: 0, Parent: -1, Name: spanDoc, Start: now()})
	call := func(name string, fn func()) {
		s := span{Req: id, ID: len(out.spans), Parent: 0, Name: name, Start: now()}
		fn()
		s.End = now()
		out.spans = append(out.spans, s)
	}
	var tokens []tokenizer.Token
	call(spanTokenize, func() { tokens = tokenizer.Tokenize(r.text) })
	rec := ner.Recognizer{Lexicon: r.tgt.store}
	var mentions []ner.Mention
	call(spanRecognize, func() { mentions = rec.RecognizeTokens(r.text, tokens) })
	surfaces := make([]string, len(mentions))
	for i, m := range mentions {
		surfaces[i] = m.Text
	}
	var words []string
	call(spanContent, func() { words = tokenizer.ContentWordsFromTokens(tokens) })
	var p *disambig.Problem
	call(spanProblem, func() { p = disambig.NewProblemFromWords(r.tgt.store, words, surfaces, maxCands) })
	p.Scorer = r.tgt.engine
	p.CoherenceWorkers = 1
	p.Context = ctx
	p.ContextModel = r.ctxModel
	var res *disambig.Output
	call(spanSolve, func() { res = method.Disambiguate(p) })
	anns := make([]aida.Annotation, len(mentions))
	for i, m := range mentions {
		anns[i] = aida.Annotation{Mention: m, Entity: res.Results[i].Entity, Label: res.Results[i].Label, Score: res.Results[i].Score}
	}
	var conf []float64
	if r.confIters > 0 {
		call(spanConf, func() {
			conf = emerge.CONF(method, p, res, emerge.PerturbConfig{Iterations: r.confIters, Seed: r.confSeed})
		})
	}
	out.spans[0].End = now()
	out.digest = resultDigest(anns, conf)
	out.counts.mentions = int64(len(mentions))
	for i := range p.Mentions {
		out.counts.candidates += int64(len(p.Mentions[i].Candidates))
	}
	out.counts.comparisons = int64(res.Stats.Comparisons)
	out.counts.graphEntities = int64(res.Stats.GraphEntities)
	return out
}

// resultDigest digests what the replay must reproduce of AnnotateDoc:
// the annotations and the confidence scores.
func resultDigest(anns []aida.Annotation, conf []float64) [32]byte {
	raw, err := json.Marshal(struct {
		A []aida.Annotation
		F []float64
	}{anns, conf})
	if err != nil {
		return sha256.Sum256([]byte(err.Error()))
	}
	return sha256.Sum256(raw)
}

// pass is one replay or AnnotateDoc pass over a request list.
type pass struct {
	wall    time.Duration
	lats    []float64 // per request, ms
	digests [][32]byte
	spans   [][]span // traced passes only
	counts  layerCounts
}

func (p *pass) docsPerSec() float64 { return float64(len(p.lats)) / p.wall.Seconds() }

// runPool runs fn for indices [0, n) on nproc workers, each index once.
func (b *bench) runPool(n int, fn func(i int)) time.Duration {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// replayPass replays the requests on nproc workers with spans recorded;
// ids offsets the request ids so passes over several groups (live-serve
// days) keep them unique.
func (b *bench) replayPass(ctx context.Context, t0 time.Time, reqs []replayReq, ids int) pass {
	method := aida.NewAIDAMethod()
	p := pass{lats: make([]float64, len(reqs)), digests: make([][32]byte, len(reqs)), spans: make([][]span, len(reqs))}
	counts := make([]layerCounts, len(reqs))
	p.wall = b.runPool(len(reqs), func(i int) {
		r := replayOne(ctx, t0, ids+i, reqs[i], method, b.design.MaxCandidates)
		p.digests[i], p.spans[i], counts[i] = r.digest, r.spans, r.counts
		p.lats[i] = float64(r.spans[0].End-r.spans[0].Start) / 1e6
	})
	for _, c := range counts {
		p.counts.add(c)
	}
	return p
}

// annotatePass runs the same requests through System.AnnotateDoc (the
// untraced reference) on nproc workers.
func (b *bench) annotatePass(ctx context.Context, sys *aida.System, texts []string, opts func(i int) []aida.AnnotateOption) (pass, error) {
	p := pass{lats: make([]float64, len(texts)), digests: make([][32]byte, len(texts))}
	var mu sync.Mutex
	var firstErr error
	p.wall = b.runPool(len(texts), func(i int) {
		o := append([]aida.AnnotateOption{aida.WithParallelism(1)}, opts(i)...)
		start := time.Now()
		d, err := sys.AnnotateDoc(ctx, texts[i], o...)
		p.lats[i] = ms(time.Since(start))
		if err != nil {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			return
		}
		p.digests[i] = resultDigest(d.Annotations, d.Confidence)
	})
	return p, firstErr
}

// engineUse tracks one scoring engine's counters across a traced pass.
type engineUse struct {
	engine *relatedness.Scorer
	before relatedness.Stats
}

// engineTally sums pair-cache traffic over the engines a pass used.
type engineTally struct {
	hits, misses int64
	open         []engineUse
}

func (t *engineTally) start(e *relatedness.Scorer) {
	t.open = append(t.open, engineUse{e, e.Stats()})
}

// retire closes out every open engine's traffic.
func (t *engineTally) retire() {
	for _, u := range t.open {
		st := u.engine.Stats()
		t.hits += st.Hits - u.before.Hits
		t.misses += st.Misses - u.before.Misses
	}
	t.open = t.open[:0]
}

// pairs is the memoized pair count of the engines still open.
func (t *engineTally) pairs() int {
	n := 0
	for _, u := range t.open {
		n += u.engine.Stats().Pairs
	}
	return n
}

// layerReport turns a traced pass and its untraced twin into the
// per-layer metrics every workload reports; layers the workload does not
// exercise stay 0.
func (b *bench) layerReport(traced, plain pass, t *engineTally) error {
	for _, u := range layerUnits {
		b.rep.set(u.name, 0)
	}
	self := map[string]float64{}
	var busy float64
	for _, group := range traced.spans {
		for _, s := range group {
			d := float64(s.End-s.Start) / 1e6
			self[s.Name] += d
			if s.Parent < 0 {
				busy += d
			} else {
				self[group[s.Parent].Name] -= d
			}
		}
	}
	b.rep.set("tokenizer.busy_ms", self[spanTokenize]+self[spanContent])
	b.rep.set("ner.busy_ms", self[spanRecognize])
	b.rep.set("ner.mentions", float64(traced.counts.mentions))
	b.rep.set("kb.candidates_busy_ms", self[spanProblem])
	b.rep.set("kb.candidates", float64(traced.counts.candidates))
	b.rep.set("disambig.busy_ms", self[spanSolve])
	b.rep.set("disambig.comparisons", float64(traced.counts.comparisons))
	b.rep.set("disambig.graph_entities", float64(traced.counts.graphEntities))
	b.rep.set("emerge.conf_busy_ms", self[spanConf])
	pairs := t.pairs()
	t.retire()
	b.rep.set("relatedness.hits", float64(t.hits))
	b.rep.set("relatedness.misses", float64(t.misses))
	b.rep.set("relatedness.hit_rate", share(t.hits, t.hits+t.misses))
	b.rep.set("relatedness.pairs", float64(pairs))
	b.rep.set("aida.worker_utilization", busy/(traced.wall.Seconds()*1000*float64(b.workers)))
	b.rep.set("trace.overhead_docs_per_s", plain.docsPerSec()-traced.docsPerSec())
	b.rep.set("trace.overhead_p50_ms", quantile(traced.lats, 0.5)-quantile(plain.lats, 0.5))

	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.rep.note("self time %-34s %10.2f ms", n, self[n])
	}
	b.rep.note("untraced: %.2f docs/s, p50 %.3f ms; traced: %.2f docs/s, p50 %.3f ms (%d requests)",
		plain.docsPerSec(), quantile(plain.lats, 0.5), traced.docsPerSec(), quantile(traced.lats, 0.5), len(traced.lats))

	// Faithfulness: the replayed calls must reproduce AnnotateDoc exactly.
	for i := range traced.digests {
		b.rep.attempted++
		if traced.digests[i] != plain.digests[i] {
			b.rep.failed++
			b.rep.violate("replayed request %d differs from AnnotateDoc", i)
		}
	}
	return writeSpans(b.spansPath(), traced.spans)
}

// writeSpans writes the recorded spans as JSON lines.
func writeSpans(path string, groups [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, g := range groups {
		for _, s := range g {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d spans to %s\n", n, path)
	return nil
}

func (b *bench) spansPath() string {
	return filepath.Join(b.root, ".bench_build", "trace", b.workload+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
}

// warmUp annotates a quarter of the batch corpus on a throwaway system, so
// the untraced and the traced pass that follow both run in a process
// whose heap and runtime are already grown.
func (b *bench) warmUp(ctx context.Context, in *inputs) {
	k, err := in.loadKB()
	if err != nil {
		return // the passes that follow load the same snapshot and report it
	}
	sys := aida.New(k, aida.WithMaxCandidates(b.design.MaxCandidates))
	sys.AnnotateCorpus(ctx, texts(in.Conll[:len(in.Conll)/4]), aida.WithParallelism(b.workers))
}

// liveTarget is a System's serving generation as a replay target.
func liveTarget(sys *aida.System) *target {
	lv := sys.Live()
	return &target{store: lv.Store, engine: lv.Engine}
}

// traceBatch is the traced run of news-batch and fleet-batch: the corpus
// through AnnotateDoc (untraced) and through the replayed layer calls
// (traced), each on a cold system.
func (b *bench) traceBatch(ctx context.Context, in *inputs, fleet bool) error {
	perm := rand.New(rand.NewSource(b.seed)).Perm(len(in.Conll))
	txt := make([]string, len(perm))
	for i, j := range perm {
		txt[i] = in.Conll[j].Text
	}
	b.warmUp(ctx, in)
	env, _, err := b.setupBatch(ctx, in, fleet)
	if err != nil {
		return err
	}
	defer env.close()
	sys, _, done, err := env.system(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	plain, err := b.annotatePass(ctx, sys, txt, func(int) []aida.AnnotateOption { return nil })
	done()
	if err != nil {
		return err
	}
	sys, remote, done, err := env.system(ctx)
	if err != nil {
		return err
	}
	defer done()
	tgt := liveTarget(sys)
	var before aida.RemoteStats
	if remote != nil {
		before = remote.Stats()
	}
	var tally engineTally
	tally.start(tgt.engine)
	reqs := make([]replayReq, len(txt))
	for i, t := range txt {
		reqs[i] = replayReq{text: t, tgt: tgt}
	}
	runtime.GC()
	traced := b.replayPass(ctx, time.Now(), reqs, 0)
	if err := b.layerReport(traced, plain, &tally); err != nil {
		return err
	}
	if remote != nil {
		st := remote.Stats()
		b.rep.set("kb.remote_requests", float64(st.Requests-before.Requests))
		b.rep.set("kb.remote_hedges", float64(st.Hedges-before.Hedges))
		b.rep.set("kb.remote_retries", float64(st.Retries-before.Retries))
		b.rep.set("kb.remote_failovers", float64(st.Failovers-before.Failovers))
		b.rep.set("kb.remote_cached_entities", float64(st.CachedEntities))
	}
	return nil
}
