package main

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"roar/internal/frontend"
	"roar/internal/pps"
)

func TestSameSeedSameScheduleAndInputs(t *testing.T) {
	for _, wl := range workloads {
		a := makePlan(7, wl.nominal, wl.ladder, 30)
		b := makePlan(7, wl.nominal, wl.ladder, 30)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed gave different schedules", wl.name)
		}
		if c := makePlan(8, wl.nominal, wl.ladder, 30); reflect.DeepEqual(a[0].due, c[0].due) {
			t.Fatalf("%s: different seeds gave the same schedule", wl.name)
		}
		if n := len(a[0].due); n < minNominal {
			t.Fatalf("%s: nominal phase has %d requests, want >= %d", wl.name, n, minNominal)
		}
	}

	d1, d2 := makeDocs(3, 500, 2000, 4), makeDocs(3, 500, 2000, 4)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed gave different documents")
	}
	if reflect.DeepEqual(d1, makeDocs(4, 500, 2000, 4)) {
		t.Fatal("different seeds gave the same documents")
	}
	w1 := keywordPool(d1, 50, 2, 40, rand.New(rand.NewSource(1)))
	w2 := keywordPool(d2, 50, 2, 40, rand.New(rand.NewSource(1)))
	if !slices.Equal(w1, w2) || len(w1) == 0 {
		t.Fatalf("keyword pools differ or are empty: %v vs %v", w1, w2)
	}

	// Encrypted queries are deterministic: trapdoors depend only on the
	// key and the predicate (record encryption draws a fresh nonce, as
	// the scheme requires, but records are never compared byte-wise).
	e1 := pps.NewEncoder(pps.TestKey(1), encoderConfig())
	e2 := pps.NewEncoder(pps.TestKey(1), encoderConfig())
	for _, p := range append(datePreds(), pps.Predicate{Kind: pps.Keyword, Word: w1[0]}) {
		if !reflect.DeepEqual(mustPred(e1, p), mustPred(e2, p)) {
			t.Fatalf("predicate %+v encrypted differently", p)
		}
	}

	z1, z2 := &indexZipf{seed: 5}, &indexZipf{seed: 5}
	for r := uint64(0); r < 1000; r++ {
		if !reflect.DeepEqual(z1.plainQuery(r), z2.plainQuery(r)) {
			t.Fatalf("rank %d maps to different plaintext queries", r)
		}
	}
}

// TestLatencyTimedFromDueTime stalls the generator for 100ms before the
// third request. Requests due during the stall are issued late, and
// their latency, timed from the due time, carries the stall even though
// the program answers them at once.
func TestLatencyTimedFromDueTime(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 100 * time.Millisecond
	ph := phase{name: "test", rate: 100}
	for k := 1; k <= 10; k++ {
		ph.due = append(ph.due, time.Duration(k)*gap)
	}
	instant := func(context.Context, int) (frontend.Result, error) { return frontend.Result{}, nil }
	ss, err := runPhase(context.Background(), ph, instant, nil, time.Now(), func(k int) {
		if k == 2 {
			time.Sleep(stall)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stallEnd := ph.due[2] + stall
	for k, s := range ss {
		if k < 2 {
			continue
		}
		want := stallEnd - s.due
		if s.latency() < want-time.Millisecond {
			t.Errorf("request %d: latency %v, want at least %v (the stall)", k, s.latency(), want)
		}
		if s.late() < want-time.Millisecond {
			t.Errorf("request %d: lateness %v, want at least %v", k, s.late(), want)
		}
		if s.done-s.call > 50*time.Millisecond {
			t.Errorf("request %d: service %v, the stub answers at once", k, s.done-s.call)
		}
	}
	st := summarize("test", ph.rate, ss)
	if st.late[len(st.late)-1] < ms(stall)-1 {
		t.Errorf("worst lateness %.1f ms does not show the %v stall", st.late[len(st.late)-1], stall)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{100000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.9}, {100, 0.9}, {99, 0.5}, {20, 0.5}, {19, 0},
	}
	for _, c := range cases {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, 100*q, beyond(c.n, q))
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if got := quantile(vs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (nearest rank)", got)
	}
}

func TestCapacityInterpolation(t *testing.T) {
	const limit = 100.0
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	cases := []struct {
		name  string
		steps []step
		want  float64
		note  bool
	}{
		{"between steps", []step{{rate: 100, tail: 20}, {rate: 200, tail: 60}, {rate: 300, tail: 140}}, 250, false},
		{"growing backlog counts as twice the limit", []step{{rate: 100, tail: 50}, {rate: 200, tail: 80, grew: true}}, 100 + 100*50.0/150, false},
		{"failed request counts as twice the limit", []step{{rate: 100, tail: 50}, {rate: 200, tail: math.Inf(1)}}, 100 + 100*50.0/150, false},
		// A pause at 200 q/s (tail 160) is pooled with the step after it:
		// the fit is 20, 120, 120, 300, crossing the limit between 100
		// and 200 q/s.
		{"pause pooled", []step{{rate: 100, tail: 20}, {rate: 200, tail: 160}, {rate: 300, tail: 80}, {rate: 400, tail: 300}}, 180, false},
		{"censored at the top", []step{{rate: 100, tail: 20}, {rate: 200, tail: 90}}, 200, true},
		{"below the ladder", []step{{rate: 100, tail: 200}}, 50, true},
	}
	for _, c := range cases {
		got, note := capacity(c.steps, limit)
		if !near(got, c.want) || (note != "") != c.note {
			t.Errorf("%s: capacity = %v (%q), want %v (note %v)", c.name, got, note, c.want, c.note)
		}
	}
	if got := monotone([]float64{1, 3, 2, 5, 4, 4}); !slices.Equal(got, []float64{1, 2.5, 2.5, 13.0 / 3, 13.0 / 3, 13.0 / 3}) {
		t.Errorf("monotone = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{trace: 1, parent: -1, name: "op", start: 0, end: 100 * ms},
		{trace: 1, parent: 0, name: "a", start: 10 * ms, end: 30 * ms},
		{trace: 1, parent: 0, name: "a", start: 20 * ms, end: 50 * ms},  // overlaps the first child
		{trace: 1, parent: 0, name: "b", start: 90 * ms, end: 120 * ms}, // runs past the parent
		{trace: 1, parent: 3, name: "c", start: 95 * ms, end: 100 * ms},
		{trace: 2, parent: -1, name: "op", start: 0, end: 10 * ms},
	}
	got := map[string]time.Duration{}
	for _, s := range selfTimes(spans) {
		got[s.name] = s.self
	}
	want := map[string]time.Duration{
		"op": 50*ms + 10*ms, // 100 - [10,50) - [90,100), plus the childless second op
		"a":  20*ms + 30*ms,
		"b":  30*ms - 5*ms,
		"c":  5 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

// TestChurnConsistency checks the version-window rule write-churn
// verifies answers with: a version counts from its put's start until a
// later version's drain was observed.
func TestChurnConsistency(t *testing.T) {
	s := time.Second
	w := &writeChurn{
		recIndex: map[uint64]int{7: 0},
		vers: []version{
			{rec: pps.Encoded{ID: 7}, appendAt: -never, visibleAt: -never}, // matches
			{rec: pps.Encoded{ID: 7}, appendAt: 10 * s, visibleAt: 11 * s}, // does not
		},
		byRecord: [][]int{{0, 1}},
	}
	match := []bitset{{0b01}} // version 0 matches, version 1 does not
	cases := []struct {
		name       string
		ids        []uint64
		call, done time.Duration
		ok         bool
	}{
		{"before the put: old version", []uint64{7}, 1 * s, 2 * s, true},
		{"before the put: missing", nil, 1 * s, 2 * s, false},
		{"during the put: either", nil, 10 * s, 10*s + 1, true},
		{"during the put: either (old)", []uint64{7}, 10 * s, 10*s + 1, true},
		{"after the drain: new version", nil, 12 * s, 13 * s, true},
		{"after the drain: stale", []uint64{7}, 12 * s, 13 * s, false},
		{"unknown id", []uint64{7, 8}, 1 * s, 2 * s, false},
	}
	for _, c := range cases {
		a := answer{preds: []int{0}, ids: append([]uint64{}, c.ids...), call: c.call, done: c.done}
		if got := w.consistent(a, match); got != c.ok {
			t.Errorf("%s: consistent = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestPredicateBitsMatchesMatchAll checks the reference evaluation the
// answer checks share against the matcher's own batch scan.
func TestPredicateBitsMatchesMatchAll(t *testing.T) {
	enc := pps.NewEncoder(pps.TestKey(1), encoderConfig())
	docs := makeDocs(2, 300, 500, 4)
	recs, err := encryptAll(enc, docs)
	if err != nil {
		t.Fatal(err)
	}
	preds := []pps.BloomQuery{mustPred(enc, pps.Predicate{Kind: pps.Keyword, Word: docs[0].Keywords[0]})}
	for _, p := range datePreds()[:3] {
		preds = append(preds, mustPred(enc, p))
	}
	got := predicateBits(enc, recs, preds, map[int]bool{0: true, 2: true, 3: true})
	if got[1] != nil {
		t.Error("an unused predicate was evaluated")
	}
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 3} {
		want := m.MatchAll(pps.Query{Op: pps.And, Preds: []pps.BloomQuery{preds[p]}}, recs)
		var ids []uint64
		for i := range recs {
			if got[p].has(i) {
				ids = append(ids, recs[i].ID)
			}
		}
		if !slices.Equal(sortedIDs(ids), sortedIDs(want)) || len(want) == 0 {
			t.Errorf("predicate %d: bits give %d ids, MatchAll %d", p, len(ids), len(want))
		}
	}
}
