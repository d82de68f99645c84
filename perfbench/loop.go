package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"roar/internal/frontend"
	"roar/internal/workload"
)

// nominalShare is the fraction of --seconds spent at the nominal rate;
// the rest is split evenly across the ladder steps.
const nominalShare = 0.6

// minNominal is the least number of requests in the nominal phase:
// enough that the p99 has minBeyond samples above it.
const minNominal = 1100

// requestTimeout bounds how long an operation may run past its phase's
// last due time; an operation that runs out counts as failed.
const requestTimeout = 20 * time.Second

// phase is one constant-rate stretch of the open-loop schedule.
type phase struct {
	name  string
	rate  float64         // offered queries/s
	due   []time.Duration // due offsets from the phase start, ascending
	first int             // request index of due[0]
}

// makePlan builds the run's schedule from the seed: a nominal phase of
// at least minNominal Poisson arrivals, then one phase per ladder rate.
// The same arguments always give the same schedule.
func makePlan(seed int64, nominal float64, ladder []float64, seconds float64) []phase {
	rng := rand.New(rand.NewSource(seed))
	n := max(minNominal, int(math.Round(nominal*nominalShare*seconds)))
	phases := []phase{{name: "nominal", rate: nominal, due: arrivals(rng, nominal, n, 0)}}
	stepSecs := (1 - nominalShare) * seconds / float64(len(ladder))
	for _, r := range ladder {
		span := time.Duration(stepSecs * float64(time.Second))
		phases = append(phases, phase{name: fmt.Sprintf("ladder@%g", r), rate: r, due: arrivals(rng, r, 0, span)})
	}
	first := 0
	for i := range phases {
		phases[i].first = first
		first += len(phases[i].due)
	}
	return phases
}

// arrivals draws Poisson due times at rate per second: exactly n of them
// when n > 0, else every arrival before span.
func arrivals(rng *rand.Rand, rate float64, n int, span time.Duration) []time.Duration {
	gaps := workload.NewPoisson(rate, rng)
	var out []time.Duration
	var t time.Duration
	for {
		t += gaps.Next()
		if (n > 0 && len(out) == n) || (n == 0 && t >= span) {
			return out
		}
		out = append(out, t)
	}
}

// requests returns the number of requests in a plan.
func requests(phases []phase) int {
	last := phases[len(phases)-1]
	return last.first + len(last.due)
}

// sample is one request. Times are offsets from the phase start;
// latency is done - due, so a request the generator issued late
// carries its lateness. It holds no pointers, so the benchmark's own
// records add nothing to the garbage collector's marking work.
type sample struct {
	due, call, done time.Duration
	rep             reply
	failed          bool
}

func (s sample) latency() time.Duration { return s.done - s.due }
func (s sample) late() time.Duration    { return s.call - s.due }

// reply is what the frontend reported about one answered query.
type reply struct {
	delay, queue, schedule, dispatch, merge       time.Duration
	subs, hedges, hedgedSubs, hedgeWins, failures int32
	cached                                        bool // served without a fan-out of its own
}

func replyOf(r frontend.Result) reply {
	return reply{
		delay: r.Delay, queue: r.Queue, schedule: r.Schedule, dispatch: r.Dispatch, merge: r.Merge,
		subs: int32(r.SubQueries), hedges: int32(r.Hedges), hedgedSubs: int32(r.HedgedSubs),
		hedgeWins: int32(r.HedgeWins), failures: int32(r.Failures),
		cached: r.Source == frontend.SourceCache,
	}
}

// executor runs request i of the plan.
type executor func(ctx context.Context, i int) (frontend.Result, error)

// runPhase drives one phase open-loop: a single scheduler goroutine
// issues each request at its due time on a goroutine of its own,
// whether or not earlier ones have finished, then waits for all of
// them, each bounded by requestTimeout past the phase's last due time.
// It returns the samples and the first request error. stall, when set,
// runs on the scheduler before each issue (tests use it to stall the
// generator). epoch anchors trace spans.
func runPhase(ctx context.Context, ph phase, exec executor, tr *tracer, epoch time.Time, stall func(k int)) ([]sample, error) {
	out := make([]sample, len(ph.due))
	var last time.Duration
	if len(ph.due) > 0 {
		last = ph.due[len(ph.due)-1]
	}
	ctx, cancel := context.WithTimeout(ctx, last+requestTimeout)
	defer cancel()
	var (
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	base := start.Sub(epoch)
	for k, off := range ph.due {
		if d := time.Until(start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		if stall != nil {
			stall(k)
		}
		call := time.Since(start)
		wg.Add(1)
		go func(k int, call time.Duration) {
			defer wg.Done()
			res, err := exec(ctx, ph.first+k)
			s := sample{due: ph.due[k], call: call, done: time.Since(start), rep: replyOf(res), failed: err != nil}
			if err != nil {
				errOnce.Do(func() { firstErr = err })
			}
			out[k] = s
			if tr != nil {
				tr.add(requestSpans(tr.newTrace(), base, s)...)
			}
		}(k, call)
	}
	wg.Wait()
	return out, firstErr
}

// requestSpans lays out one request's spans: op (due → done) with
// gen.wait (due → call) and frontend.query (call → done), whose
// children are built from the durations the frontend reports.
func requestSpans(id int, base time.Duration, s sample) []span {
	at := func(d time.Duration) time.Duration { return base + d }
	ss := []span{
		{trace: id, parent: -1, name: "op", start: at(s.due), end: at(s.done)},
		{trace: id, parent: 0, name: "gen.wait", start: at(s.due), end: at(s.call)},
		{trace: id, parent: 0, name: "frontend.query", start: at(s.call), end: at(s.done)},
	}
	if s.failed || s.rep.cached {
		return ss
	}
	t := at(s.call)
	for _, c := range []struct {
		name string
		d    time.Duration
	}{
		{"frontend.queue", s.rep.queue},
		{"frontend.schedule", s.rep.schedule},
		{"frontend.dispatch", s.rep.dispatch},
		{"frontend.merge", s.rep.merge},
	} {
		ss = append(ss, span{trace: id, parent: 2, name: c.name, start: t, end: t + c.d, derived: true})
		t += c.d
	}
	return ss
}

// phaseStats summarises one phase.
type phaseStats struct {
	name    string
	rate    float64
	n       int       // requests attempted
	failed  int       // requests that returned an error
	lat     []float64 // sorted latencies in ms; failures are +Inf
	tailQ   float64   // the tail quantile reported (see tailQuantile)
	late    []float64 // sorted generator lateness in ms
	span    float64   // seconds from the phase start to the last completion
	backlog int       // requests outstanding at the last due time
}

func summarize(name string, rate float64, ss []sample) phaseStats {
	st := phaseStats{name: name, rate: rate, n: len(ss)}
	lat := make([]float64, len(ss))
	late := make([]float64, len(ss))
	var lastDue, lastDone time.Duration
	for i, s := range ss {
		lat[i] = ms(s.latency())
		if s.failed {
			st.failed++
			lat[i] = math.Inf(1)
		}
		late[i] = ms(s.late())
		lastDue = max(lastDue, s.due)
		lastDone = max(lastDone, s.done)
	}
	for _, s := range ss {
		if s.call <= lastDue && s.done > lastDue {
			st.backlog++
		}
	}
	st.lat, st.late = sortedCopy(lat), sortedCopy(late)
	st.tailQ = tailQuantile(len(ss))
	st.span = lastDone.Seconds()
	return st
}

func (p phaseStats) p50() float64  { return quantile(p.lat, 0.5) }
func (p phaseStats) tail() float64 { return quantile(p.lat, p.tailQ) }

// achieved is the completion rate over the phase.
func (p phaseStats) achieved() float64 { return ratio(float64(p.n-p.failed), p.span) }

// grew reports a growing backlog: more than a tenth of the step's
// requests (and more than minBeyond, so one burst at the end does not
// count) were still outstanding at its last due time.
func (p phaseStats) grew() bool { return p.backlog > max(minBeyond, p.n/10) }

// passes reports whether a ladder step met the latency limit without a
// growing backlog.
func (p phaseStats) passes(limitMS float64) bool {
	return p.failed == 0 && p.tail() <= limitMS && !p.grew()
}

// asStep converts a ladder phase for the capacity fit.
func (p phaseStats) asStep() step { return step{rate: p.rate, tail: p.tail(), grew: p.grew()} }
