package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"aida"
	"aida/internal/disambig"
	"aida/internal/kb"
	"aida/internal/tokenizer"
)

// contextModel resolves a request's context spec the way the aida package
// does (nil when the spec carries no context).
func contextModel(c *aida.ContextSpec) *disambig.ContextModel {
	if c == nil || (len(c.Keyphrases) == 0 && len(c.Entities) == 0) {
		return nil
	}
	cm := &disambig.ContextModel{Weight: c.Weight}
	for _, kp := range c.Keyphrases {
		cm.Words = append(cm.Words, tokenizer.ContentWords(kp)...)
	}
	if len(c.Entities) > 0 {
		cm.Entities = make(map[kb.EntityID]bool, len(c.Entities))
		for _, id := range c.Entities {
			cm.Entities[id] = true
		}
	}
	return cm
}

// confidenceOf resolves a request's confidence spec (0 iterations = none).
func confidenceOf(c *aida.ConfidenceSpec) (iters int, seed int64) {
	if c == nil {
		return 0, 0
	}
	if iters = c.Iterations; iters <= 0 {
		iters = 10
	}
	return iters, c.Seed
}

// endpointLatency is one endpoint's request-duration totals in /v1/stats.
type endpointLatency struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
}

// annotateLatency reads the server's /v1/annotate duration totals.
func annotateLatency(base string) (endpointLatency, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return endpointLatency{}, err
	}
	defer resp.Body.Close()
	var st struct {
		Server struct {
			LatencyByEndpoint map[string]endpointLatency `json:"latency_by_endpoint"`
		} `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return endpointLatency{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	return st.Server.LatencyByEndpoint["/v1/annotate"], nil
}

// serverPhase runs jobs against a freshly started server and reports the
// server-side layer metrics: mean handler time from the /v1/stats
// histogram, the handler's overhead over in-process AnnotateDoc calls of
// the same requests in the same order on sys (prepared like the server,
// run one at a time as the server mostly sees them), the client-observed
// time beyond the handler, and the generator's lateness. Every answer must
// then byte-equal the in-process handler h over sys.
func (b *bench) serverPhase(ctx context.Context, args []string, prep func(base string) error, jobs []job, items []catalogItem, sys *aida.System, h http.Handler) error {
	sp, _, err := b.startServer(args)
	if err != nil {
		return err
	}
	defer sp.stop()
	if err := prep(sp.base); err != nil {
		return err
	}
	before, err := annotateLatency(sp.base)
	if err != nil {
		return err
	}
	samples := b.openLoop(sp.base, jobs)
	after, err := annotateLatency(sp.base)
	if err != nil {
		return err
	}
	sp.stop()
	var inProc []float64
	for _, j := range jobs {
		if j.item < 0 {
			continue
		}
		spec := items[j.item].spec
		start := time.Now()
		if _, err := sys.AnnotateDoc(ctx, items[j.item].text, spec.Options()...); err != nil {
			return fmt.Errorf("in-process AnnotateDoc: %w", err)
		}
		inProc = append(inProc, ms(time.Since(start)))
	}
	ph := summarize(jobs, samples)
	handler := 0.0
	if n := after.Count - before.Count; n > 0 {
		handler = (after.SumSeconds - before.SumSeconds) / float64(n) * 1000
	}
	b.rep.set("server.handler_ms", handler)
	b.rep.set("server.overhead_ms", handler-mean(inProc))
	b.rep.set("server.transport_ms", mean(ph.clientMS)-handler)
	b.rep.set("loadgen.lateness_ms", quantile(ph.lateness, 0.99))
	b.rep.note("server phase: %s; handler mean %.3f ms, in-process AnnotateDoc mean %.3f ms", ph, handler, mean(inProc))
	for i, j := range jobs {
		s := &samples[i]
		b.rep.attempted++
		switch {
		case !s.ok():
			b.rep.failed++
			b.rep.violate("server phase request %d: status %d, err %v", i, s.status, s.err)
		case j.item >= 0 && !bytes.Equal(s.body, inProcessBody(h, j.body)):
			b.rep.failed++
			b.rep.violate("server phase request %d differs from the in-process handler", i)
		}
	}
	return nil
}

// traceShortServe is short-serve's traced run: the first rate ×
// server_seconds requests of the sequence through AnnotateDoc (untraced)
// and through the replayed layer calls (traced), then the same requests
// against the server.
func (b *bench) traceShortServe(ctx context.Context, in *inputs) error {
	d := b.design.ShortServe
	traffic := b.newShortTraffic(in)
	jobs, err := traffic.jobs(int(d.RateRPS*b.design.Traced.ServerSeconds), d.RateRPS)
	if err != nil {
		return err
	}
	items := make([]catalogItem, len(jobs))
	txt := make([]string, len(jobs))
	for i, j := range jobs {
		items[i] = traffic.items[j.item]
		txt[i] = items[i].text
	}
	b.warmUp(ctx, in)
	sys, _, err := b.inProcessSystem(in, true)
	if err != nil {
		return err
	}
	plain, err := b.annotatePass(ctx, sys, txt, func(i int) []aida.AnnotateOption {
		spec := items[i].spec
		return spec.Options()
	})
	if err != nil {
		return err
	}

	k, err := in.loadKB()
	if err != nil {
		return err
	}
	base := liveTarget(aida.New(k, aida.WithMaxCandidates(b.design.MaxCandidates)))
	dicts, err := aida.LoadDomainDictionaries(in.domainsPath())
	if err != nil {
		return err
	}
	domains := map[string]*target{}
	var tally engineTally
	tally.start(base.engine)
	for _, dict := range dicts {
		layer, err := aida.NewDomainLayer(base.store, dict)
		if err != nil {
			return err
		}
		t := &target{store: layer, engine: base.engine.CloneFor(layer, layer.Touched(), layer.Added() > 0)}
		domains[dict.Name] = t
		tally.start(t.engine)
	}
	reqs := make([]replayReq, len(items))
	for i, it := range items {
		tgt := base
		if it.spec.Domain != "" {
			if tgt = domains[it.spec.Domain]; tgt == nil {
				return fmt.Errorf("request %d names unknown domain %q", i, it.spec.Domain)
			}
		}
		iters, seed := confidenceOf(it.spec.Confidence)
		reqs[i] = replayReq{text: it.text, tgt: tgt, ctxModel: contextModel(it.spec.Context), confIters: iters, confSeed: seed}
	}
	traced := b.replayPass(ctx, time.Now(), reqs, 0)
	if err := b.layerReport(traced, plain, &tally); err != nil {
		return err
	}
	ref, h, err := b.inProcessSystem(in, true)
	if err != nil {
		return err
	}
	noPrep := func(string) error { return nil }
	return b.serverPhase(ctx, b.shortServerArgs(in), noPrep, jobs, traffic.items, ref, h)
}

// traceLiveServe is live-serve's traced run: the documents of a
// traced.live_seconds live-serve schedule, delta by delta with each delta
// applied in process first, through AnnotateDoc (untraced) and through the
// replayed layer calls (traced, with the in-process ApplyDelta timed);
// then the first delta and its documents against the server.
func (b *bench) traceLiveServe(ctx context.Context, in *inputs) error {
	jobs, items, err := b.liveTraffic(in, b.design.Traced.LiveSeconds)
	if err != nil {
		return err
	}
	// Documents per delta, in schedule order.
	var parts [][]int
	for _, j := range jobs {
		if j.item < 0 {
			parts = append(parts, nil)
			continue
		}
		parts[len(parts)-1] = append(parts[len(parts)-1], j.item)
	}
	b.warmUp(ctx, in)
	sysA, _, err := b.inProcessSystem(in, false)
	if err != nil {
		return err
	}
	kB, err := in.loadKB()
	if err != nil {
		return err
	}
	sysB := aida.New(kB, aida.WithMaxCandidates(b.design.MaxCandidates))
	var plain, traced pass
	var tally engineTally
	var applyMS []float64
	t0 := time.Now()
	for k, idx := range parts {
		txt := make([]string, len(idx))
		for i, it := range idx {
			txt[i] = items[it].text
		}
		if _, err := sysA.ApplyDelta(&in.Deltas[k]); err != nil {
			return fmt.Errorf("apply delta %d: %w", k+1, err)
		}
		p, err := b.annotatePass(ctx, sysA, txt, func(int) []aida.AnnotateOption { return nil })
		if err != nil {
			return err
		}
		plain.wall += p.wall
		plain.lats = append(plain.lats, p.lats...)
		plain.digests = append(plain.digests, p.digests...)

		start := time.Now()
		if _, err := sysB.ApplyDelta(&in.Deltas[k]); err != nil {
			return fmt.Errorf("apply delta %d: %w", k+1, err)
		}
		applyMS = append(applyMS, ms(time.Since(start)))
		tally.retire()
		tgt := liveTarget(sysB)
		tally.start(tgt.engine)
		misses := tgt.engine.Stats().Misses
		reqs := make([]replayReq, len(txt))
		for i, t := range txt {
			reqs[i] = replayReq{text: t, tgt: tgt}
		}
		q := b.replayPass(ctx, t0, reqs, len(traced.lats))
		traced.wall += q.wall
		traced.lats = append(traced.lats, q.lats...)
		traced.digests = append(traced.digests, q.digests...)
		traced.spans = append(traced.spans, q.spans...)
		traced.counts.add(q.counts)
		b.rep.note("delta %d: applied in %.1f ms, then %.1f relatedness misses per doc over %d docs",
			k+1, applyMS[k], float64(tgt.engine.Stats().Misses-misses)/float64(max(len(txt), 1)), len(txt))
	}
	if err := b.layerReport(traced, plain, &tally); err != nil {
		return err
	}
	b.rep.set("kb.delta_apply_ms", median(applyMS))

	// Server phase: the first delta, applied before traffic starts so every
	// answer comes from generation 1, then that delta's documents at the
	// live rate.
	sys1, h1, err := b.inProcessSystem(in, false)
	if err != nil {
		return err
	}
	if _, err := sys1.ApplyDelta(&in.Deltas[0]); err != nil {
		return err
	}
	delta, err := json.Marshal(&in.Deltas[0])
	if err != nil {
		return err
	}
	postDelta := func(base string) error {
		resp, err := http.Post(base+"/v1/admin/kb/delta", "application/json", bytes.NewReader(delta))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST first delta: status %d: %s", resp.StatusCode, body)
		}
		return nil
	}
	n := int(b.design.LiveServe.RateRPS * b.design.Traced.ServerSeconds)
	var phaseJobs []job
	for i := 0; i < n; i++ {
		it := parts[0][i%len(parts[0])]
		at := time.Duration(float64(i) / b.design.LiveServe.RateRPS * float64(time.Second))
		phaseJobs = append(phaseJobs, job{at: at, path: "/v1/annotate", body: items[it].body, item: it})
	}
	dir, journal, reset, err := b.liveJournal()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := reset(); err != nil {
		return err
	}
	return b.serverPhase(ctx, b.liveServerArgs(in, journal), postDelta, phaseJobs, items, sys1, h1)
}
