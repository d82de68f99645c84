// Command perfbench is the ROAR cluster's open-loop benchmark. It starts
// the in-process cluster (8 nodes at p=4 over loopback TCP, the real
// coordinator and frontend), drives one workload open-loop from a
// seeded Poisson schedule, checks every answer against a reference, and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones.
// The last line of its output is one JSON object. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// spec defines one workload.
type spec struct {
	name    string
	why     string
	nominal float64   // queries/s at which latency is reported
	ladder  []float64 // offered rates of the capacity ladder, ascending
	limitMS float64   // tail-latency limit that defines capacity
	setup   func(setupArgs) (instance, error)
}

// setupArgs is what a workload's set-up receives.
type setupArgs struct {
	seed     int64
	dir      string  // scratch directory for files the cluster writes
	requests int     // requests in the plan
	seconds  float64 // length of the timed phase
}

var workloads = []spec{
	{
		name:    "scan-unique",
		why:     "encrypted PPS scans that rarely repeat: the node match layer does the work",
		nominal: 40,
		ladder:  []float64{100, 125, 150, 175, 200},
		limitMS: 500,
		setup:   setupScan,
	},
	{
		name:    "index-zipf",
		why:     "Zipf-popular plaintext index queries: frontend, cache and wire dominate",
		nominal: 1500,
		ladder:  []float64{4000, 8000, 12000, 16000},
		limitMS: 20,
		setup:   setupZipf,
	},
	{
		name:    "write-churn",
		why:     "cached encrypted queries beside WAL puts and live ChangeP 4-2-4 cycles",
		nominal: 150,
		ladder:  []float64{250, 350, 450, 550, 650, 750},
		limitMS: 100,
		setup:   setupChurn,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// endToEndNames are the end-to-end metrics every untraced run reports
// in its JSON line: those steady enough run to run to gate a change (see
// README.md). The tail latencies, capacity_qps and error_frac are
// printed with them but not gated. perLayerNames are the metrics every
// traced run reports. Both lists are the same for every workload; a
// layer a workload does not reach reports 0.
var endToEndNames = []string{"setup_s", "query_p50_ms", "cpu_ms_per_query", "rss_peak_mb"}

var perLayerNames = []string{
	"frontend.cache_hit_ratio", "frontend.coalesced_frac", "frontend.cache_invalidations_per_put",
	"frontend.hit_p50_us", "frontend.queue_p99_us", "frontend.schedule_p50_us", "frontend.merge_p50_us",
	"frontend.dispatch_p50_us", "frontend.dispatch_p99_us", "frontend.subqueries_per_query",
	"frontend.hedge_frac", "frontend.hedge_win_frac", "frontend.shed", "frontend.failures_recovered",
	"wire.dispatch_minus_node_us",
	"node.service_us", "node.busy_per_dispatch", "node.scanned_per_query", "node.ns_per_record", "node.busy_imbalance",
	"node.canceled_frac", "node.peak_concurrency",
	"index.posting_cache_hit_ratio", "ingest.drain_lag_p50_ms", "membership.records_moved_per_changep",
	"frontend.apply_view_us", "runtime.alloc_kb_per_query", "runtime.gc_cpu_frac", "runtime.heap_inuse_mb",
	"gen.late_p99_ms", "gen.achieved_frac",
}

// genLateLimitMS and genPaceMin bound the generator's own health: a run
// whose generator was late by more than genLateLimitMS for the median
// nominal-phase request, or issued its schedule at under genPaceMin of
// the planned pace, measured the load generator rather than the program
// and is reported invalid. (Pauses of the whole process, which delay
// the generator and the program alike, show in the lateness tail and
// are part of latency.)
const (
	genLateLimitMS = 2
	genPaceMin     = 0.97
)

// setupRuns is how many times an untraced run sets the workload up;
// setup_s is the median. A traced run sets up once per pass.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scan-unique, index-zipf or write-churn")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs and schedule")
	seconds := fs.Float64("seconds", 25, "length of the timed phase (nominal + ladder), seconds")
	traced := fs.Int("trace", 0, "1 = untraced and traced runs, per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the WAL and segment files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q)\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "workload %s (seed %d, %gs timed, GOMAXPROCS %d): %s\n",
		wl.name, *seed, *seconds, runtime.GOMAXPROCS(0), wl.why)
	var out *outcome
	if *traced == 0 {
		out, err = measure(wl, *seed, *seconds, setupRuns, dir, nil)
	} else {
		out, err = traceRun(stdout, wl, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printOutcome(stdout, wl, out)
	if !out.genValid {
		fmt.Fprintf(stdout, "INVALID RUN: the load generator fell behind its schedule (late p50 %.2f ms, pace %.3f); no result reported\n",
			quantile(out.nominal.late, 0.5), out.genPace)
		return 3
	}
	names := endToEndNames
	vals := out.endToEnd
	if *traced == 1 {
		names, vals = perLayerNames, out.layers
	}
	line, err := resultJSON(out, names, vals)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outcome is everything one measured run produced.
type outcome struct {
	setups     []float64
	nominal    phaseStats
	steps      []phaseStats
	capacity   float64
	capNote    string
	endToEnd   []metric
	layers     []metric
	extra      []metric // workload-specific end-to-end metrics
	attempted  int
	failed     int
	wrong      int
	check      check
	genLateP99 float64
	genPace    float64
	genValid   bool
	spans      []span
	firstErr   error // first failed request, for diagnosis
}

func (o *outcome) noteErr(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// measure sets the workload up `setups` times (keeping the last), then
// runs the nominal phase and the ladder, then verifies every answer.
func measure(wl spec, seed int64, seconds float64, setups int, dir string, tr *tracer) (*outcome, error) {
	plan := makePlan(seed, wl.nominal, wl.ladder, seconds)
	out := &outcome{}
	var inst instance
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		in, err := wl.setup(setupArgs{seed: seed, dir: dir, requests: requests(plan), seconds: seconds})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if k < setups-1 {
			in.close()
			// Free the discarded set-up before the next one, so garbage
			// from it does not inflate the peak RSS.
			runtime.GC()
		} else {
			inst = in
		}
	}
	defer inst.close()
	c := inst.cluster()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	epoch := time.Now()
	s0 := takeSnap(c)
	stop := inst.background(ctx, tr, epoch)
	nomSamples, err := runPhase(ctx, plan[0], inst.query, tr, epoch, nil)
	out.noteErr(err)
	s1 := takeSnap(c)
	rss := peakRSSMB() // through set-up and the nominal phase
	// The ladder stops at a growing backlog (the program is saturated)
	// or at the second step in a row over the limit.
	var ladder []sample
	over := 0
	for _, ph := range plan[1:] {
		ss, err := runPhase(ctx, ph, inst.query, tr, epoch, nil)
		out.noteErr(err)
		ladder = append(ladder, ss...)
		st := summarize(ph.name, ph.rate, ss)
		out.steps = append(out.steps, st)
		if st.passes(wl.limitMS) {
			over = 0
			continue
		}
		if over++; st.grew() || over == 2 {
			break
		}
	}
	stop()
	s2 := takeSnap(c)

	out.nominal = summarize("nominal", wl.nominal, nomSamples)
	steps := make([]step, len(out.steps))
	for i, st := range out.steps {
		steps[i] = st.asStep()
	}
	out.capacity, out.capNote = capacity(steps, wl.limitMS)

	ck := inst.verify()
	out.check = ck
	out.wrong = ck.wrong
	for _, s := range append(slices.Clip(nomSamples), ladder...) {
		out.attempted++
		if s.failed {
			out.failed++
		}
	}
	out.failed += out.wrong + ck.opsFailed
	out.attempted += ck.ops

	out.genLateP99 = quantile(out.nominal.late, 0.99)
	lastDue, lastCall := time.Duration(0), time.Duration(0)
	for _, s := range nomSamples {
		lastDue, lastCall = max(lastDue, s.due), max(lastCall, s.call)
	}
	out.genPace = ratio(float64(lastDue), float64(lastCall))
	out.genValid = quantile(out.nominal.late, 0.5) <= genLateLimitMS && out.genPace >= genPaceMin

	e2e, extraLayers := inst.report()
	out.extra = e2e
	out.endToEnd = []metric{
		{"setup_s", "s", median(out.setups)},
		{"query_p50_ms", "ms", out.nominal.p50()},
		{"query_p90_ms", "ms", quantile(out.nominal.lat, 0.90)},
		{"query_p99_ms", "ms", quantile(out.nominal.lat, 0.99)},
		{"capacity_qps", "1/s", out.capacity},
		{"cpu_ms_per_query", "ms", ms(s1.cpu-s0.cpu) / float64(max(1, out.nominal.n-out.nominal.failed))},
		{"rss_peak_mb", "MiB", rss},
	}
	out.layers = layerMetrics(out, nomSamples, ladder, s0, s1, s2, extraLayers)
	if tr != nil {
		out.spans = tr.spans
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics of the nominal phase (the
// admission queue is read from the ladder, where it forms).
func layerMetrics(out *outcome, nom, ladder []sample, s0, s1, s2 snap, extra []metric) []metric {
	var hitDelay, sched, merge, dispatch, queue []float64
	var subs, hedged, hedges, wins, failures, fromCache int
	for _, s := range nom {
		if s.failed {
			continue
		}
		r := s.rep
		if r.cached {
			fromCache++
			hitDelay = append(hitDelay, us(r.delay))
			continue
		}
		sched = append(sched, us(r.schedule))
		merge = append(merge, us(r.merge))
		dispatch = append(dispatch, us(r.dispatch))
		subs += int(r.subs)
		hedged += int(r.hedgedSubs)
		hedges += int(r.hedges)
		wins += int(r.hedgeWins)
		failures += int(r.failures)
	}
	for _, s := range ladder {
		if !s.failed && !s.rep.cached {
			queue = append(queue, us(s.rep.queue))
		}
	}
	n := float64(len(nom))
	nd := deltaNodes(s0, s1)
	service := ratio(us(nd.busy), float64(nd.queries))
	meanBusy := ratio(float64(nd.busy), float64(len(s1.nodes)))
	dispatchS := sortedCopy(dispatch)
	cpu := (s1.cpu - s0.cpu).Seconds()
	list := []metric{
		{"frontend.cache_hit_ratio", "ratio", ratio(float64(fromCache), n)},
		{"frontend.coalesced_frac", "ratio", ratio(float64(s1.cache.Coalesced-s0.cache.Coalesced), n)},
		{"frontend.cache_invalidations_per_put", "count", 0},
		{"frontend.hit_p50_us", "us", nanToZero(quantile(sortedCopy(hitDelay), 0.5))},
		{"frontend.queue_p99_us", "us", nanToZero(quantile(sortedCopy(queue), 0.99))},
		{"frontend.schedule_p50_us", "us", nanToZero(quantile(sortedCopy(sched), 0.5))},
		{"frontend.merge_p50_us", "us", nanToZero(quantile(sortedCopy(merge), 0.5))},
		{"frontend.dispatch_p50_us", "us", nanToZero(quantile(dispatchS, 0.5))},
		{"frontend.dispatch_p99_us", "us", nanToZero(quantile(dispatchS, 0.99))},
		{"frontend.subqueries_per_query", "count", ratio(float64(subs), n)},
		{"frontend.hedge_frac", "ratio", ratio(float64(hedged), float64(subs))},
		{"frontend.hedge_win_frac", "ratio", ratio(float64(wins), float64(hedges))},
		{"frontend.shed", "count", float64(s1.shed + s2.shed)},
		{"frontend.failures_recovered", "count", float64(failures)},
		{"wire.dispatch_minus_node_us", "us", mean(dispatch) - service},
		{"node.service_us", "us", service},
		{"node.busy_per_dispatch", "ratio", ratio(float64(nd.busy), float64(len(dispatch))*mean(dispatch)*1e3)},
		{"node.scanned_per_query", "count", ratio(float64(nd.scanned), n)},
		{"node.ns_per_record", "ns", ratio(float64(nd.busy), float64(nd.scanned))},
		{"node.busy_imbalance", "ratio", ratio(float64(nd.busyMax), meanBusy)},
		{"node.canceled_frac", "ratio", ratio(float64(nd.canceled), float64(nd.queries+nd.canceled))},
		{"node.peak_concurrency", "count", float64(nd.peak)},
		{"index.posting_cache_hit_ratio", "ratio", ratio(float64(s1.ixHits-s0.ixHits), float64(s1.ixHits-s0.ixHits+s1.ixMisses-s0.ixMisses))},
		{"ingest.drain_lag_p50_ms", "ms", 0},
		{"membership.records_moved_per_changep", "count", 0},
		{"frontend.apply_view_us", "us", 0},
		{"runtime.alloc_kb_per_query", "KiB", ratio(float64(s1.alloc-s0.alloc)/1024, n)},
		{"runtime.gc_cpu_frac", "ratio", ratio(s1.gcCPU-s0.gcCPU, cpu)},
		{"runtime.heap_inuse_mb", "MiB", float64(s1.heapInuse) / (1 << 20)},
		{"gen.late_p99_ms", "ms", out.genLateP99},
		{"gen.achieved_frac", "ratio", out.genPace},
	}
	for _, e := range extra {
		if i := slices.IndexFunc(list, func(m metric) bool { return m.name == e.name }); i >= 0 {
			list[i] = e
		} else {
			list = append(list, e)
		}
	}
	return list
}

func nanToZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

// traceRun measures the workload untraced and then traced, each on a
// fresh set-up, prints the span self times and the tracing overhead,
// and returns the traced outcome.
func traceRun(w io.Writer, wl spec, seed int64, seconds float64, dir string) (*outcome, error) {
	plain, err := measure(wl, seed, seconds, 1, dir, nil)
	if err != nil {
		return nil, err
	}
	traced, err := measure(wl, seed, seconds, 1, dir, newTracer())
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "span self time (traced run; node work is in the layer counters below):")
	printSelfTimes(w, selfTimes(traced.spans))
	for _, m := range traced.layers {
		if m.name == "node.busy_per_dispatch" {
			fmt.Fprintf(w, "node layer: busy time summed over a fan-out query's sub-queries is %.2f of its frontend.dispatch\n", m.value)
		}
	}
	fmt.Fprintln(w, "tracing overhead (traced - untraced):")
	for i, m := range traced.endToEnd {
		p := plain.endToEnd[i]
		fmt.Fprintf(w, "  %-18s untraced %10.3f  traced %10.3f %-4s  (%+.1f%%)\n",
			m.name, p.value, m.value, m.unit, 100*ratio(m.value-p.value, p.value))
	}
	return traced, nil
}

func printOutcome(w io.Writer, wl spec, out *outcome) {
	n := out.nominal
	fmt.Fprintf(w, "set-up: %d runs, seconds %s\n", len(out.setups), fmtFloats(out.setups))
	fmt.Fprintf(w, "nominal %g q/s: %d requests, %d failed, achieved %.1f q/s, p50 %.3f ms, p%g %.3f ms (%d samples beyond)\n",
		n.rate, n.n, n.failed, n.achieved(), n.p50(), 100*n.tailQ, n.tail(), beyond(n.n, n.tailQ))
	fmt.Fprintf(w, "generator: late p50 %.3f ms p99 %.3f ms, pace %.4f of schedule, GOMAXPROCS %d\n",
		quantile(n.late, 0.5), out.genLateP99, out.genPace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "ladder (limit: p-tail <= %g ms, no growing backlog):\n", wl.limitMS)
	for _, st := range out.steps {
		fmt.Fprintf(w, "  %-14s %5d req  achieved %8.1f q/s  p50 %9.3f ms  p%-4g %9.3f ms  backlog %4d  pass %v\n",
			st.name, st.n, st.achieved(), st.p50(), 100*st.tailQ, st.tail(), st.backlog, st.passes(wl.limitMS))
	}
	if out.capNote != "" {
		fmt.Fprintf(w, "capacity note: %s\n", out.capNote)
	}
	errFrac := ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(w, "checks: %d attempted, %d failed (%d wrong answers, %d failed other ops), error_frac %.6f\n",
		out.attempted, out.failed, out.wrong, out.check.opsFailed, errFrac)
	for _, note := range out.check.notes {
		fmt.Fprintf(w, "  check: %s\n", note)
	}
	if out.firstErr != nil {
		fmt.Fprintf(w, "  first request error: %v\n", out.firstErr)
	}
	fmt.Fprintln(w, "end-to-end:")
	for _, m := range append(append(slices.Clip(out.endToEnd), metric{"error_frac", "ratio", errFrac}), out.extra...) {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintln(w, "per-layer (nominal phase):")
	for _, m := range out.layers {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func fmtFloats(vs []float64) string {
	s := ""
	for i, v := range vs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", v)
	}
	return s
}

// resultJSON renders the final line: the named metrics with their
// units, plus the correctness counts.
func resultJSON(out *outcome, names []string, vals []metric) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, name := range names {
		i := slices.IndexFunc(vals, func(m metric) bool { return m.name == name })
		if i < 0 {
			return nil, fmt.Errorf("metric %s not measured", name)
		}
		v := vals[i].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		ms[name] = val{v, vals[i].unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{out.wrong == 0 && out.check.opsFailed == 0, out.attempted, out.failed, ms})
}
