package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"aida"
	"aida/internal/server"
)

// serverProc is one running aidaserver child.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the child has been reaped
	err  error         // Wait's result, valid after done
}

// startServer execs aidaserver on a free loopback port and returns once
// /healthz answers 200, with the time from exec to that answer.
func (b *bench) startServer(args []string) (*serverProc, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(b.server, append(args, "-addr", addr)...)
	cmd.Dir = b.root
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start aidaserver: %w", err)
	}
	sp := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		sp.err = cmd.Wait()
		close(sp.done)
	}()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Second}
	for {
		select {
		case <-sp.done:
			return nil, 0, fmt.Errorf("aidaserver exited before it was ready: %v", sp.err)
		default:
		}
		if resp, err := client.Get(sp.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sp, time.Since(start), nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			sp.stop()
			return nil, 0, errors.New("aidaserver not ready after 2m")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the child (SIGTERM, then SIGKILL after 10s) and waits for it.
func (sp *serverProc) stop() {
	sp.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-sp.done:
	case <-time.After(10 * time.Second):
		sp.cmd.Process.Kill()
		<-sp.done
	}
}

// bootServer starts the server setup_repeats times and keeps the last
// one running; every start is one setup_s sample.
func (b *bench) bootServer(args []string, reset func() error) (*serverProc, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		if err := reset(); err != nil {
			return nil, nil, err
		}
		sp, took, err := b.startServer(args)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took.Seconds())
		if i+1 >= b.design.SetupRepeats {
			return sp, setups, nil
		}
		sp.stop()
	}
}

// job is one scheduled request of an open-loop phase.
type job struct {
	at   time.Duration // scheduled send time, from the phase start
	path string
	body []byte
	item int // index into the workload's request catalog; -1 for a delta
}

// sample is what happened to one job. Times are from the phase start.
type sample struct {
	dispatched, sent, done time.Duration
	status                 int
	body                   []byte
	err                    error
}

func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// latency is the time from the job's scheduled send to its response: the
// wait a stall imposes on later requests counts. A failed request counts
// as the client timeout, past any latency limit.
func (s *sample) latency(j job) float64 {
	if !s.ok() {
		return ms(clientTimeout)
	}
	return ms(s.done - j.at)
}

const clientTimeout = 60 * time.Second

// openLoop sends the jobs on their schedule, independent of responses: a
// dispatcher releases each job at its time into a queue that nproc
// workers, one keep-alive connection each, drain. The dispatcher's own
// lag behind the schedule is the generator lateness.
func (b *bench) openLoop(base string, jobs []job) []sample {
	tr := &http.Transport{MaxConnsPerHost: b.workers, MaxIdleConnsPerHost: b.workers, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: clientTimeout}
	samples := make([]sample, len(jobs))
	queue := make(chan int, len(jobs)) // one slot per scheduled send
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.sent = time.Since(start)
				resp, err := client.Post(base+jobs[i].path, "application/json", bytes.NewReader(jobs[i].body))
				if err == nil {
					s.status = resp.StatusCode
					s.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				s.err = err
				s.done = time.Since(start)
			}
		}()
	}
	for i, j := range jobs {
		if d := time.Until(start.Add(j.at)); d > 0 {
			time.Sleep(d)
		}
		samples[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// phase summarizes the annotate requests of an open-loop phase.
type phase struct {
	sent, ok, failed, throttled int
	lats, clientMS, lateness    []float64
	wall                        time.Duration // first scheduled send to last response
}

func summarize(jobs []job, samples []sample) phase {
	var p phase
	for i, j := range jobs {
		s := &samples[i]
		p.lateness = append(p.lateness, ms(s.dispatched-j.at))
		if j.item < 0 {
			continue
		}
		p.sent++
		if s.ok() {
			p.ok++
			p.clientMS = append(p.clientMS, ms(s.done-s.sent))
		} else {
			p.failed++
		}
		if s.status == http.StatusTooManyRequests {
			p.throttled++
		}
		p.lats = append(p.lats, s.latency(j))
		if d := s.done - jobs[0].at; d > p.wall {
			p.wall = d
		}
	}
	return p
}

func (p phase) String() string {
	return fmt.Sprintf("sent %d, ok %d, failed %d, 429 %d, p50 %.3f ms, p99 %.3f ms over %d samples (%d beyond p99), lateness p99 %.3f ms max %.3f ms",
		p.sent, p.ok, p.failed, p.throttled, quantile(p.lats, 0.5), quantile(p.lats, 0.99), len(p.lats), len(p.lats)/100,
		quantile(p.lateness, 0.99), quantile(p.lateness, 1))
}

// catalogItem is one distinct request of a serve workload.
type catalogItem struct {
	kind string // "plain", "context", "domain" or "news"
	spec aida.RequestSpec
	text string
	body []byte
	gold []goldMention
}

// wireRequest is the POST /v1/annotate body: the text plus the spec.
type wireRequest struct {
	Text string `json:"text"`
	aida.RequestSpec
}

func newItem(kind, text string, spec aida.RequestSpec, gold []goldMention) (catalogItem, error) {
	body, err := json.Marshal(wireRequest{Text: text, RequestSpec: spec})
	return catalogItem{kind: kind, spec: spec, text: text, body: body, gold: gold}, err
}

// shortTraffic is short-serve's request catalog and its seeded request
// sequence. The sequence is stratified so every run sends the same mix:
// it comes in blocks holding each kind the number of times the design
// says, in a seeded order. The candidates-plus-confidence slots of the
// blocks cycle through the kinds in the same proportions, so every run
// asks CONF of each kind equally often. Each kind walks its document pool
// in a seeded order, so documents recur evenly; a plain request with CONF
// instead takes a seed-drawn document from the next cost stratum of the
// plain pool, because CONF on a plain document is the slowest request of
// the mix and which documents it lands on would otherwise move p99.
type shortTraffic struct {
	items     []catalogItem
	rng       *rand.Rand
	index     map[[3]int]int
	block     [][2]int // pending (kind, confidence) slots of the current block
	perms     [][]int  // per kind, the seeded document order
	cursor    []int
	confKinds []int   // pending kinds of the current confidence cycle
	strata    [][]int // plain documents cut into equal strata by Cost
	phase     float64 // position of the low-discrepancy walk over strata
	in        *inputs
	b         *bench
}

var shortKinds = []string{"plain", "context", "domain"}

// confStratum is the number of plain documents per cost stratum of the
// CONF walk.
const confStratum = 10

func (b *bench) newShortTraffic(in *inputs) *shortTraffic {
	t := &shortTraffic{rng: rand.New(rand.NewSource(b.seed)), index: map[[3]int]int{}, in: in, b: b,
		cursor: make([]int, len(shortKinds))}
	for _, n := range []int{len(in.Kore), len(in.Short), len(in.Hard)} {
		t.perms = append(t.perms, t.rng.Perm(n))
	}
	byCost := make([]int, len(in.Kore))
	for i := range byCost {
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(i, j int) bool { return in.Kore[byCost[i]].Cost < in.Kore[byCost[j]].Cost })
	n := max(1, len(byCost)/confStratum)
	for s := 0; s < n; s++ {
		t.strata = append(t.strata, byCost[s*len(byCost)/n:(s+1)*len(byCost)/n])
	}
	t.phase = t.rng.Float64()
	return t
}

// next returns the catalog index of the sequence's next request.
func (t *shortTraffic) next() (int, error) {
	d := t.b.design.ShortServe
	if len(t.block) == 0 {
		for k, name := range shortKinds {
			for range d.MixPerBlock[name] {
				t.block = append(t.block, [2]int{k, 0})
			}
		}
		t.rng.Shuffle(len(t.block), func(i, j int) { t.block[i], t.block[j] = t.block[j], t.block[i] })
		for range d.ConfPerBlock {
			if len(t.confKinds) == 0 {
				for k, name := range shortKinds {
					for range d.MixPerBlock[name] {
						t.confKinds = append(t.confKinds, k)
					}
				}
				t.rng.Shuffle(len(t.confKinds), func(i, j int) { t.confKinds[i], t.confKinds[j] = t.confKinds[j], t.confKinds[i] })
			}
			kind := t.confKinds[0]
			t.confKinds = t.confKinds[1:]
			for i := range t.block {
				if t.block[i] == [2]int{kind, 0} {
					t.block[i][1] = 1
					break
				}
			}
		}
	}
	kind, conf := t.block[0][0], t.block[0][1]
	t.block = t.block[1:]
	var doc int
	if kind == 0 && conf == 1 {
		// A golden-ratio (Weyl) walk visits the strata so that every
		// prefix of it covers the cost range evenly.
		t.phase = math.Mod(t.phase+0.6180339887498949, 1)
		stratum := t.strata[int(t.phase*float64(len(t.strata)))]
		doc = stratum[t.rng.Intn(len(stratum))]
	} else {
		perm := t.perms[kind]
		doc = perm[t.cursor[kind]%len(perm)]
		t.cursor[kind]++
	}
	key := [3]int{kind, doc, conf}
	if i, ok := t.index[key]; ok {
		return i, nil
	}
	var spec aida.RequestSpec
	var text string
	var gold []goldMention
	switch kind {
	case 0:
		text, gold = t.in.Kore[doc].Text, t.in.Kore[doc].Gold
	case 1:
		h := t.in.Short[doc]
		text, gold = h.Text, h.Gold
		spec.Context = &aida.ContextSpec{Keyphrases: h.Context, Entities: h.ContextEntities}
	case 2:
		h := t.in.Hard[doc]
		text, gold = h.Text, h.Gold
		spec.Domain = d.Domain
	}
	if conf == 1 {
		spec.Candidates = true
		spec.Confidence = &aida.ConfidenceSpec{Seed: 1}
	}
	item, err := newItem(shortKinds[kind], text, spec, gold)
	if err != nil {
		return 0, err
	}
	t.items = append(t.items, item)
	t.index[key] = len(t.items) - 1
	return len(t.items) - 1, nil
}

// jobs schedules the next n requests of the sequence at a fixed rate,
// evenly spaced, starting at offset.
func (t *shortTraffic) jobs(n int, rate float64) ([]job, error) {
	out := make([]job, n)
	for i := range out {
		item, err := t.next()
		if err != nil {
			return nil, err
		}
		out[i] = job{at: time.Duration(float64(i) / rate * float64(time.Second)), path: "/v1/annotate", body: t.items[item].body, item: item}
	}
	return out, nil
}

func (b *bench) shortServerArgs(in *inputs) []string {
	return []string{"-kb", in.kbPath(), "-domains", in.domainsPath(), "-max-candidates", strconv.Itoa(b.design.MaxCandidates)}
}

// inProcessSystem is the reference a served response must byte-equal: a
// fresh System over the same snapshot (with the same domain layers),
// answered through the server package's own handler in process.
func (b *bench) inProcessSystem(in *inputs, domains bool) (*aida.System, http.Handler, error) {
	k, err := in.loadKB()
	if err != nil {
		return nil, nil, err
	}
	sys := aida.New(k, aida.WithMaxCandidates(b.design.MaxCandidates))
	if domains {
		dicts, err := aida.LoadDomainDictionaries(in.domainsPath())
		if err != nil {
			return nil, nil, err
		}
		for _, d := range dicts {
			if err := sys.RegisterDomain(d); err != nil {
				return nil, nil, err
			}
		}
	}
	srv := server.New(sys, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	return sys, srv.Handler(), nil
}

// inProcessBody is the handler's response body for one annotate body.
func inProcessBody(h http.Handler, body []byte) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/annotate", bytes.NewReader(body)))
	return rec.Body.Bytes()
}

// runShortServe measures short-serve: open-loop annotate traffic at the
// fixed rate for --seconds, then the rate ladder.
func (b *bench) runShortServe() error {
	ctx := context.Background()
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	if b.trace {
		return b.traceShortServe(ctx, in)
	}
	d := b.design.ShortServe
	traffic := b.newShortTraffic(in)
	fixed, err := traffic.jobs(int(d.RateRPS*b.seconds), d.RateRPS)
	if err != nil {
		return err
	}
	sp, setups, err := b.bootServer(b.shortServerArgs(in), func() error { return nil })
	if err != nil {
		return err
	}
	defer sp.stop()
	samples := b.openLoop(sp.base, fixed)
	main := summarize(fixed, samples)
	allJobs, allSamples := fixed, samples

	maxRPS := 0.0
	for _, rate := range d.LadderRPS {
		jobs, err := traffic.jobs(int(rate*d.RungSeconds), rate)
		if err != nil {
			return err
		}
		s := b.openLoop(sp.base, jobs)
		rung := summarize(jobs, s)
		allJobs, allSamples = append(allJobs, jobs...), append(allSamples, s...)
		tail := rung.lats[len(rung.lats)*3/4:]
		pass := rung.failed == 0 && quantile(rung.lats, 0.99) <= d.LatencyLimitMS && median(tail) <= d.LatencyLimitMS
		b.rep.note("ladder %4.0f req/s: %s -> %s", rate, rung, map[bool]string{true: "meets", false: "misses"}[pass])
		if !pass {
			break
		}
		maxRPS = rate
	}
	peak := peakRSSMB(sp.cmd.Process.Pid)
	sp.stop()

	// Correctness: every answer byte-equals the in-process handler's for
	// the same body; accuracy is scored on the answers.
	_, h, err := b.inProcessSystem(in, true)
	if err != nil {
		return err
	}
	want := make([][]byte, len(traffic.items))
	b.runPool(len(want), func(i int) { want[i] = inProcessBody(h, traffic.items[i].body) })
	accs := map[string]*accuracy{}
	var all accuracy
	for _, k := range shortKinds {
		accs[k] = &accuracy{}
	}
	b.scoreResponses(allJobs, allSamples, traffic.items, func(i int) bool {
		return bytes.Equal(allSamples[i].body, want[allJobs[i].item])
	}, &all, accs)
	b.checkSlices(*accs["context"], *accs["domain"])

	b.rep.set("setup_s", median(setups))
	b.rep.set("docs_per_s", float64(main.ok)/main.wall.Seconds())
	b.rep.set("p50_ms", quantile(main.lats, 0.5))
	b.rep.set("p99_ms", hdQuantile(main.lats, 0.99))
	b.rep.set("accuracy", all.rate())
	b.rep.set("peak_rss_mb", peak)
	b.rep.note("fixed rate %.0f req/s for %gs: %s; p99_ms is the Harrell-Davis estimate", d.RateRPS, b.seconds, main)
	b.rep.note("max_rps: %.0f req/s (highest ladder rung with p99 <= %.0f ms and no growing backlog)", maxRPS, d.LatencyLimitMS)
	b.rep.note("setup_s samples: %s", fmtList(setups))
	b.rep.note("plain slice accuracy %.4f; %d distinct requests over %d plain, %d context and %d domain documents",
		accs["plain"].rate(), len(traffic.items), len(in.Kore), len(in.Short), len(in.Hard))
	b.rep.note("failed_share: %.4f (%d of %d requests)", share(b.rep.failed, b.rep.attempted), b.rep.failed, b.rep.attempted)
	return nil
}

// scoreResponses counts every annotate sample as attempted, fails the
// ones that errored or whose body the matcher rejects, and scores the
// accepted answers for accuracy.
func (b *bench) scoreResponses(jobs []job, samples []sample, items []catalogItem, match func(i int) bool, all *accuracy, byKind map[string]*accuracy) {
	for i, j := range jobs {
		s := &samples[i]
		if j.item < 0 {
			continue
		}
		b.rep.attempted++
		switch {
		case !s.ok():
			b.rep.failed++
			b.rep.violate("request %d: status %d, err %v", i, s.status, s.err)
			continue
		case !match(i):
			b.rep.failed++
			b.rep.violate("request %d (%s): response differs from the in-process replay", i, items[j.item].kind)
			continue
		}
		var resp struct {
			Annotations []annotated `json:"annotations"`
		}
		if err := json.Unmarshal(s.body, &resp); err != nil {
			b.rep.failed++
			b.rep.violate("request %d: decode response: %v", i, err)
			continue
		}
		item := items[j.item]
		all.add(item.gold, resp.Annotations)
		if a := byKind[item.kind]; a != nil {
			a.add(item.gold, resp.Annotations)
		}
	}
}

// liveTraffic is live-serve's schedule: the run is cut into one slot per
// news day, and each day's slot into deltas_per_day equal parts; each part
// opens with the delta adding its share of that day's emerging entities,
// and the slot carries that day's documents, in an order the seed draws,
// at the fixed rate.
func (b *bench) liveTraffic(in *inputs, seconds float64) ([]job, []catalogItem, error) {
	d := b.design.LiveServe
	days := in.newsDays(d.Days)
	rng := rand.New(rand.NewSource(b.seed))
	part := seconds / float64(d.Days*d.DeltasPerDay)
	perPart := int(d.RateRPS * part)
	var jobs []job
	var items []catalogItem
	for day := 1; day <= d.Days; day++ {
		docs := days[day-1]
		if len(docs) == 0 {
			return nil, nil, fmt.Errorf("news day %d has no documents", day)
		}
		rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
		next := 0
		for p := 0; p < d.DeltasPerDay; p++ {
			k := (day-1)*d.DeltasPerDay + p
			start := time.Duration(float64(k) * part * float64(time.Second))
			delta, err := json.Marshal(&in.Deltas[k])
			if err != nil {
				return nil, nil, err
			}
			jobs = append(jobs, job{at: start, path: "/v1/admin/kb/delta", body: delta, item: -1})
			for i := 0; i < perPart; i++ {
				doc := docs[next%len(docs)]
				next++
				item, err := newItem("news", doc.Text, aida.RequestSpec{}, doc.Gold)
				if err != nil {
					return nil, nil, err
				}
				items = append(items, item)
				at := start + time.Duration((float64(i)+0.5)/d.RateRPS*float64(time.Second))
				jobs = append(jobs, job{at: at, path: "/v1/annotate", body: item.body, item: len(items) - 1})
			}
		}
	}
	return jobs, items, nil
}

func (b *bench) liveServerArgs(in *inputs, journal string) []string {
	return []string{"-kb", in.kbPath(), "-delta-journal", journal, "-max-candidates", strconv.Itoa(b.design.MaxCandidates)}
}

// liveJournal makes a directory for the live server's delta journal. The
// reset function removes the journal before every start, so each boot
// serves generation 0; the caller removes the directory.
func (b *bench) liveJournal() (dir, path string, reset func() error, err error) {
	dir, err = os.MkdirTemp(filepath.Join(b.root, ".bench_build"), "live-")
	if err != nil {
		return "", "", nil, err
	}
	path = filepath.Join(dir, "deltas.journal")
	reset = func() error {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	return dir, path, reset, nil
}

// runLiveServe measures live-serve: the news stream replayed day by day
// at a fixed rate while each day's delta is POSTed on schedule.
func (b *bench) runLiveServe() error {
	ctx := context.Background()
	in, err := b.loadInputs()
	if err != nil {
		return err
	}
	if b.trace {
		return b.traceLiveServe(ctx, in)
	}
	jobs, items, err := b.liveTraffic(in, b.seconds)
	if err != nil {
		return err
	}
	dir, journal, reset, err := b.liveJournal()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp, setups, err := b.bootServer(b.liveServerArgs(in, journal), reset)
	if err != nil {
		return err
	}
	defer sp.stop()
	samples := b.openLoop(sp.base, jobs)
	main := summarize(jobs, samples)
	peak := peakRSSMB(sp.cmd.Process.Pid)
	sp.stop()

	// The generations live during each request: from the deltas answered
	// before it was sent up to the deltas sent before it was answered.
	var deltaLats []float64
	var deltaSent, deltaDone []time.Duration
	for i, j := range jobs {
		if j.item >= 0 {
			continue
		}
		s := &samples[i]
		b.rep.attempted++
		if !s.ok() {
			b.rep.failed++
			b.rep.violate("delta %d: status %d, err %v: %s", len(deltaSent)+1, s.status, s.err, s.body)
		}
		deltaLats = append(deltaLats, s.latency(j))
		deltaSent, deltaDone = append(deltaSent, s.sent), append(deltaDone, s.done)
	}
	lo, hi := make([]int, len(jobs)), make([]int, len(jobs))
	for i := range jobs {
		for g := range deltaSent {
			if deltaDone[g] < samples[i].sent {
				lo[i] = g + 1
			}
			if deltaSent[g] < samples[i].done {
				hi[i] = g + 1
			}
		}
	}
	// Replay in process at each generation in turn, applying the same
	// deltas between them; a response must equal one of its generations'.
	sys, h, err := b.inProcessSystem(in, false)
	if err != nil {
		return err
	}
	matched := make([]bool, len(jobs))
	for g := 0; g <= len(in.Deltas); g++ {
		var todo []int
		for i, j := range jobs {
			if j.item >= 0 && samples[i].ok() && !matched[i] && lo[i] <= g && g <= hi[i] {
				todo = append(todo, i)
			}
		}
		b.runPool(len(todo), func(k int) {
			i := todo[k]
			matched[i] = bytes.Equal(inProcessBody(h, jobs[i].body), samples[i].body)
		})
		if g < len(in.Deltas) {
			if _, err := sys.ApplyDelta(&in.Deltas[g]); err != nil {
				return fmt.Errorf("in-process replay of delta %d: %w", g+1, err)
			}
		}
	}
	var all accuracy
	b.scoreResponses(jobs, samples, items, func(i int) bool { return matched[i] }, &all, nil)

	b.rep.set("setup_s", median(setups))
	b.rep.set("docs_per_s", float64(main.ok)/main.wall.Seconds())
	b.rep.set("p50_ms", quantile(main.lats, 0.5))
	// A few hundred samples leave the nearest-rank p99 to three or four
	// of them; the Harrell-Davis estimate blends the top several.
	b.rep.set("p99_ms", hdQuantile(main.lats, 0.99))
	b.rep.set("accuracy", all.rate())
	b.rep.set("peak_rss_mb", peak)
	b.rep.note("fixed rate %.0f req/s for %gs, %d days of %d deltas: %s; p99_ms is the Harrell-Davis estimate",
		b.design.LiveServe.RateRPS, b.seconds, b.design.LiveServe.Days, b.design.LiveServe.DeltasPerDay, main)
	b.rep.note("delta_p50_ms: %.3f ms (POST /v1/admin/kb/delta from its scheduled time; samples %s)", median(deltaLats), fmtList(deltaLats))
	b.rep.note("setup_s samples: %s", fmtList(setups))
	b.rep.note("failed_share: %.4f (%d of %d requests)", share(b.rep.failed, b.rep.attempted), b.rep.failed, b.rep.attempted)
	return nil
}
