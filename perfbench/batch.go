package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"aida"
)

// batchEnv is what a batch run keeps across its passes: the decoded KB
// and, for fleet-batch, the shard hosts serving it over loopback HTTP.
type batchEnv struct {
	b     *bench
	kb    *aida.KB
	fleet bool
	m     aida.ShardMap
	hosts []*http.Server
}

// setupBatch does what every `aida -batch` run pays before its first
// document: decode the KB snapshot and build the System; for fleet-batch
// also start the shard hosts and dial them. It returns the environment
// and that time.
func (b *bench) setupBatch(ctx context.Context, in *inputs, fleet bool) (*batchEnv, time.Duration, error) {
	// Every set-up and pass starts from a collected heap, so garbage left
	// by the previous one does not bill this one for its collection.
	runtime.GC()
	start := time.Now()
	k, err := in.loadKB()
	if err != nil {
		return nil, 0, fmt.Errorf("load KB: %w", err)
	}
	env := &batchEnv{b: b, kb: k, fleet: fleet}
	if fleet {
		if err := env.startHosts(); err != nil {
			return nil, 0, err
		}
	}
	_, _, done, err := env.system(ctx)
	if err != nil {
		env.close()
		return nil, 0, err
	}
	took := time.Since(start)
	done()
	return env, took, nil
}

// startHosts serves the KB as design.fleet_batch.shards StoreHost shards
// on loopback listeners.
func (e *batchEnv) startHosts() error {
	shards := e.b.design.FleetBatch.Shards
	for i := 0; i < shards; i++ {
		host, err := aida.NewStoreHost(e.kb, i, shards)
		if err != nil {
			e.close()
			return err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return err
		}
		srv := &http.Server{Handler: host.Handler()}
		e.hosts = append(e.hosts, srv)
		go srv.Serve(l) // returns ErrServerClosed on Close
		e.m.Shards = append(e.m.Shards, aida.ShardEndpoints{Primary: "http://" + l.Addr().String()})
	}
	return nil
}

// system returns a cold System: a fresh engine over the KB, or over a
// RemoteStore freshly dialed to the hosts with the default remote options
// (the transport mirrors the default client so it can be closed). done
// releases its connections.
func (e *batchEnv) system(ctx context.Context) (*aida.System, *aida.RemoteStore, func(), error) {
	opt := aida.WithMaxCandidates(e.b.design.MaxCandidates)
	if !e.fleet {
		return aida.New(e.kb, opt), nil, func() {}, nil
	}
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second, ForceAttemptHTTP2: true}
	remote, err := aida.DialFleet(ctx, e.m, aida.RemoteOptions{Client: &http.Client{Transport: tr}})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dial fleet: %w", err)
	}
	return aida.New(remote, opt), remote, tr.CloseIdleConnections, nil
}

// close stops the shard hosts.
func (e *batchEnv) close() {
	for _, s := range e.hosts {
		s.Close()
	}
}

// bootBatch runs setup_repeats set-ups, keeping the last environment.
func (b *bench) bootBatch(ctx context.Context, in *inputs, fleet bool) (*batchEnv, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		env, took, err := b.setupBatch(ctx, in, fleet)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i+1 >= b.design.SetupRepeats {
			return env, setups, nil
		}
		env.close()
	}
}

// runBatch measures news-batch or fleet-batch. After setup_repeats timed
// set-ups, it cycles through one AnnotateCorpus pass at parallelism nproc
// (docs_per_s: all their documents over all their time) and three passes
// of nproc workers issuing one AnnotateDoc per document (latencies). After
// the first cycle it starts no pass that the last one's duration says
// would end past --seconds. Every pass starts from a cold engine (and, for
// fleet-batch, a freshly dialed RemoteStore with cold caches) and takes
// the corpus in its own seed-drawn order, so the order's effect on cache
// warm-up averages out over the passes of a run. p50 and p99 are over all
// latencies of the per-document passes; p99 falls among the heavy
// documents' latencies, which swing with how warm the engine is when they
// run, so it is the Harrell-Davis estimate, which blends the several
// values around the rank where the nearest rank takes one.
func (b *bench) runBatch(fleet bool) error {
	ctx := context.Background()
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	if b.trace {
		return b.traceBatch(ctx, in, fleet)
	}
	n := len(in.Conll)
	env, setups, err := b.bootBatch(ctx, in, fleet)
	if err != nil {
		return err
	}
	defer env.close()
	resetPeakRSS()
	rng := rand.New(rand.NewSource(b.seed))
	var rates []float64
	var lats []float64 // every latency of the per-document passes
	docPasses := 0
	var corpusTime time.Duration
	var ref [][32]byte // per corpus document, from the first pass
	var corpusAcc accuracy
	start := time.Now()
	budget := time.Duration(b.seconds * float64(time.Second))
	var last time.Duration // the last pass's duration
	for round := 0; round < 4 || time.Since(start)+last <= budget; round++ {
		passStart := time.Now()
		perm := rng.Perm(n)
		txt := make([]string, n)
		for i, j := range perm {
			txt[i] = in.Conll[j].Text
		}
		sys, remote, done, err := env.system(ctx)
		if err != nil {
			return err
		}
		digests := make([][32]byte, n)
		runtime.GC()
		if round%4 == 0 {
			var out []*aida.Document
			out, err = sys.AnnotateCorpus(ctx, txt, aida.WithParallelism(b.workers))
			took := time.Since(passStart)
			corpusTime += took
			rates = append(rates, float64(n)/took.Seconds())
			for i, d := range out {
				digests[perm[i]] = resultDigest(d.Annotations, d.Confidence)
				if round == 0 {
					corpusAcc.add(in.Conll[perm[i]].Gold, annotationsOf(d))
				}
			}
		} else {
			var p pass
			p, err = b.annotatePass(ctx, sys, txt, func(int) []aida.AnnotateOption { return nil })
			lats = append(lats, p.lats...)
			docPasses++
			for i, d := range p.digests {
				digests[perm[i]] = d
			}
		}
		if remote != nil && round == 0 {
			st := remote.Stats()
			b.rep.note("fleet pass 0: %d remote requests, %d hedges, %d retries, %d failovers, %d entities cached",
				st.Requests, st.Hedges, st.Retries, st.Failovers, st.CachedEntities)
		}
		done()
		b.rep.attempted += int64(n)
		last = time.Since(passStart)
		if err != nil {
			b.rep.failed += int64(n)
			b.rep.violate("pass %d: %v", round, err)
			continue
		}
		if ref == nil {
			ref = digests
			continue
		}
		for i := range digests {
			if digests[i] != ref[i] {
				b.rep.failed++
				b.rep.violate("pass %d: document %d differs from pass 0", round, i)
			}
		}
	}
	measured := time.Since(start)
	peak := peakRSSMB(0)
	if fleet && ref != nil {
		// The remote layer must be invisible in the output: a local
		// AnnotateCorpus over the same snapshot gives the reference bytes.
		local, err := aida.New(env.kb, aida.WithMaxCandidates(b.design.MaxCandidates)).
			AnnotateCorpus(ctx, texts(in.Conll), aida.WithParallelism(b.workers))
		if err != nil {
			return fmt.Errorf("local reference pass: %w", err)
		}
		for i, d := range local {
			if resultDigest(d.Annotations, d.Confidence) != ref[i] {
				b.rep.failed++
				b.rep.violate("fleet output of document %d differs from the local KB's", i)
			}
		}
	}

	// accuracy is scored on a larger draw from the pool than the timed
	// corpus, whose documents alone would make it swing with the seed: the
	// corpus's first pass plus the rest of the sample, annotated untimed
	// by a fresh local System (the fleet gate above holds fleet output
	// byte-equal to local output).
	acc := corpusAcc
	extra, err := aida.New(env.kb, aida.WithMaxCandidates(b.design.MaxCandidates)).
		AnnotateCorpus(ctx, texts(in.extra), aida.WithParallelism(b.workers))
	if err != nil {
		return fmt.Errorf("accuracy pass: %w", err)
	}
	for i, d := range extra {
		acc.add(in.extra[i].Gold, annotationsOf(d))
	}

	b.rep.set("setup_s", median(setups))
	b.rep.set("docs_per_s", float64(n*len(rates))/corpusTime.Seconds())
	b.rep.set("p50_ms", quantile(lats, 0.5))
	b.rep.set("p99_ms", hdQuantile(lats, 0.99))
	b.rep.set("accuracy", acc.rate())
	b.rep.set("peak_rss_mb", peak)
	b.rep.note("corpus: %d CoNLL-geometry docs, %d in-KB gold mentions (accuracy %.4f); accuracy scored on %d docs, %d/%d in-KB gold mentions",
		n, corpusAcc.total, corpusAcc.rate(), n+len(in.extra), acc.correct, acc.total)
	b.rep.note("passes in %.1fs: %d AnnotateCorpus (docs_per_s samples %s), %d AnnotateDoc-per-document (%d latency samples)",
		measured.Seconds(), len(rates), fmtList(rates), docPasses, len(lats))
	b.rep.note("p50_ms and p99_ms (Harrell-Davis) are over those latencies (%d beyond p99); the top ten: %s",
		len(lats)/100, fmtList(slices.Sorted(slices.Values(lats))[max(0, len(lats)-10):]))
	b.rep.note("setup_s samples: %s", fmtList(setups))
	b.rep.note("failed_share: %.4f (%d of %d documents)", share(b.rep.failed, b.rep.attempted), b.rep.failed, b.rep.attempted)
	return nil
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func fmtList(vs []float64) string {
	s := "["
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", v)
	}
	return s + "]"
}
