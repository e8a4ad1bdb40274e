// Command perfbench is the repository benchmark. It runs one of four
// workloads over a seeded 50k-entity synthetic wiki world, through the aida
// public API (news-batch, fleet-batch) or the real aidaserver binary
// (short-serve, live-serve), checks the outputs, and prints its metrics.
// The fixed parameters (sizes, rates, rate ladder, delta schedule, floors)
// live in design.json next to this file.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload news-batch --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last output line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced replay. Every line
// before it is a human-readable report. --workload all runs the four
// workloads in turn, each ending in its own result line.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Units of the end-to-end metrics (--trace 0). Every workload reports all
// of them; BENCHMARK.json lists the same names.
var e2eUnits = []unitDef{
	{"setup_s", "s"},
	{"docs_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"accuracy", "ratio"},
	{"peak_rss_mb", "MB"},
}

// Units of the per-layer metrics (--trace 1). A layer a workload does not
// exercise reports 0.
var layerUnits = []unitDef{
	{"tokenizer.busy_ms", "ms"},
	{"ner.busy_ms", "ms"},
	{"ner.mentions", "count"},
	{"kb.candidates_busy_ms", "ms"},
	{"kb.candidates", "count"},
	{"kb.remote_requests", "count"},
	{"kb.remote_hedges", "count"},
	{"kb.remote_retries", "count"},
	{"kb.remote_failovers", "count"},
	{"kb.remote_cached_entities", "count"},
	{"kb.delta_apply_ms", "ms"},
	{"disambig.busy_ms", "ms"},
	{"disambig.comparisons", "count"},
	{"disambig.graph_entities", "count"},
	{"relatedness.hits", "count"},
	{"relatedness.misses", "count"},
	{"relatedness.hit_rate", "ratio"},
	{"relatedness.pairs", "count"},
	{"emerge.conf_busy_ms", "ms"},
	{"aida.worker_utilization", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"loadgen.lateness_ms", "ms"},
	{"trace.overhead_docs_per_s", "1/s"},
	{"trace.overhead_p50_ms", "ms"},
}

type unitDef struct{ name, unit string }

// workloads in the order --workload all runs them.
var workloads = []struct {
	name string
	run  func(*bench) error
}{
	{"news-batch", func(b *bench) error { return b.runBatch(false) }},
	{"fleet-batch", func(b *bench) error { return b.runBatch(true) }},
	{"short-serve", (*bench).runShortServe},
	{"live-serve", (*bench).runLiveServe},
}

// bench is one run: its options, the design parameters, the machine it
// measures on, and the report it accumulates.
type bench struct {
	root     string // checkout root; every file the run writes is below it
	server   string // aidaserver binary
	workload string
	seed     int64
	seconds  float64
	trace    bool

	design    design
	designSum [32]byte // sha256 of design.json, the input cache key
	workers   int      // load and annotation parallelism: exactly nproc
	rep       report
}

func main() {
	b := &bench{}
	flag.StringVar(&b.root, "root", ".", "checkout root (inputs are cached and traces written under .bench_build/)")
	flag.StringVar(&b.server, "server", "", "aidaserver binary built from this checkout")
	flag.StringVar(&b.workload, "workload", "", "news-batch, fleet-batch, short-serve, live-serve, or all (the four in turn, each with its own result line)")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: it draws the run's documents from the world's pools and orders them")
	flag.Float64Var(&b.seconds, "seconds", 10, "measured duration of the run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	b.trace = *traceFlag == 1
	names := []string{b.workload}
	if b.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	failed := false
	for _, name := range names {
		w := *b
		w.workload = name
		if err := w.run(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			failed = true
		} else if !w.rep.correct() {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func (b *bench) run() error {
	var run func(*bench) error
	for _, w := range workloads {
		if w.name == b.workload {
			run = w.run
		}
	}
	if run == nil {
		return fmt.Errorf("unknown workload %q (want news-batch, fleet-batch, short-serve, live-serve or all)", b.workload)
	}
	if b.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if b.server == "" {
		return fmt.Errorf("--server is required (run through perfbench/run.sh)")
	}
	root, err := filepath.Abs(b.root)
	if err != nil {
		return err
	}
	b.root = root
	if b.design, b.designSum, err = loadDesign(filepath.Join(root, "perfbench", "design.json")); err != nil {
		return err
	}
	// Never measure more parallelism than the machine has: worker counts
	// above nproc describe the scheduler, not the code.
	nproc := runtime.NumCPU()
	if gmp := runtime.GOMAXPROCS(0); gmp > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; refusing to measure oversubscribed parallelism", gmp, nproc)
	}
	b.workers = nproc
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d cpu=%q workers=%d\n",
		b.workload, b.seed, b.seconds, btoi(b.trace), nproc, runtime.GOMAXPROCS(0), cpuModel(), b.workers)
	start := time.Now()
	steal0, total0 := cpuSteal()
	if err := run(b); err != nil {
		return err
	}
	steal1, total1 := cpuSteal()
	fmt.Printf("run took %.1fs; CPU time stolen by the hypervisor: %.2f%%\n",
		time.Since(start).Seconds(), 100*share(steal1-steal0, total1-total0))
	return b.rep.print(b.trace)
}

// design is design.json: the parameters fixed at the commit that defined
// the benchmark.
type design struct {
	WorldSeed     int64 `json:"world_seed"`
	KBEntities    int   `json:"kb_entities"`
	MaxCandidates int   `json:"max_candidates"`
	SetupRepeats  int   `json:"setup_repeats"`
	NewsBatch     struct {
		Docs       int   `json:"docs"`
		PoolDocs   int   `json:"pool_docs"`
		HeavyDocs  []int `json:"heavy_docs"`
		ScoredDocs int   `json:"scored_docs"`
	} `json:"news_batch"`
	FleetBatch struct {
		Shards int `json:"shards"`
	} `json:"fleet_batch"`
	ShortServe struct {
		RateRPS        float64        `json:"rate_rps"`
		LatencyLimitMS float64        `json:"latency_limit_ms"`
		LadderRPS      []float64      `json:"ladder_rps"`
		RungSeconds    float64        `json:"rung_seconds"`
		KoreDocs       int            `json:"kore_docs"`
		KorePoolDocs   int            `json:"kore_pool_docs"`
		MixPerBlock    map[string]int `json:"mix_per_block"`
		ConfPerBlock   int            `json:"candidates_confidence_per_block"`
		Domain         string         `json:"domain"`
	} `json:"short_serve"`
	LiveServe struct {
		RateRPS      float64 `json:"rate_rps"`
		Days         int     `json:"days"`
		DeltasPerDay int     `json:"deltas_per_day"`
		DocsPerDay   int     `json:"docs_per_day"`
	} `json:"live_serve"`
	Traced struct {
		ServerSeconds float64 `json:"server_seconds"`
		LiveSeconds   float64 `json:"live_seconds"`
	} `json:"traced"`
	Floors struct {
		Context       float64 `json:"context"`
		Domain        float64 `json:"domain"`
		GoldenContext float64 `json:"golden_context"`
		GoldenDomain  float64 `json:"golden_domain"`
	} `json:"floors"`
}

func loadDesign(path string) (design, [32]byte, error) {
	var d design
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, [32]byte{}, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, [32]byte{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, sha256.Sum256(raw), nil
}

// report accumulates one run's metrics, counts and correctness violations.
type report struct {
	values     map[string]float64
	extras     []string
	attempted  int64
	failed     int64
	violations []string
}

// set records a contract metric (end-to-end or per-layer).
func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	r.values[name] = v
}

// note records a report line that is printed but not part of the result
// object (workload-specific metrics, sample counts, per-rung tables).
func (r *report) note(format string, args ...any) {
	r.extras = append(r.extras, fmt.Sprintf(format, args...))
}

// violate records a correctness-gate violation; any one fails the run.
func (r *report) violate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.violations) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", msg)
	}
	r.violations = append(r.violations, msg)
}

func (r *report) correct() bool { return len(r.violations) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the report lines and, last, the result object holding
// exactly the metric set of the run's mode.
func (r *report) print(trace bool) error {
	units := e2eUnits
	if trace {
		units = layerUnits
	}
	for _, line := range r.extras {
		fmt.Println("  " + line)
	}
	if len(r.violations) > 0 {
		fmt.Printf("  correctness violations: %d (first: %s)\n", len(r.violations), r.violations[0])
	}
	res := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(units))}
	for _, u := range units {
		v, ok := r.values[u.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", u.name)
		}
		fmt.Printf("  %-28s %14.4f %s\n", u.name, v, u.unit)
		res.Metrics[u.name] = metricValue{Value: v, Unit: u.unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSteal returns the machine-wide steal and total CPU ticks from
// /proc/stat (zeros when unavailable): time a hypervisor gave to other
// guests, which shows up as noise in every timing of the run.
func cpuSteal() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
