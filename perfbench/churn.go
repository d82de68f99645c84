package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/workload"
)

// write-churn: Zipf-popular encrypted queries over a 4k-record corpus
// with the result cache on, beside a paced stream of 16-record WAL
// puts that re-put existing ids with changed keywords, and a ChangeP
// cycle 4→2→4 running alongside both.
//
// Two races in the program make some answers wrong on this workload: a
// p increase trims node stores before frontends hold the new view, and
// a p decrease pushes a replica snapshot that a concurrently drained
// put can outdate. The checks count them; see README.md.
const (
	churnRecords  = 4000
	churnVocab    = 20000
	churnKeywords = 100
	churnBatch    = 16
	churnPutRate  = 20.0 // batches per second
	churnMarkers  = 40   // marker keywords, one per batch in turn
	churnProbes   = 6    // queries compared across each ChangeP
	churnWarm     = 64
	// churnReconfigEvery is the pause between ChangeP steps.
	churnReconfigEvery = 3 * time.Second
)

// never is a time no operation reaches: the visibility of a version
// whose drain was never confirmed.
const never = time.Duration(math.MaxInt64)

// version is one stored state of a record.
type version struct {
	rec pps.Encoded
	// appendAt is when the put carrying it started and visibleAt when
	// its drain was observed (offsets from the run epoch); base
	// versions have both at -never.
	appendAt, visibleAt time.Duration
}

// answer is one recorded query answer, timed from the run epoch.
type answer struct {
	preds      []int // indices into writeChurn.preds
	ids        []uint64
	call, done time.Duration
}

type putOp struct {
	start, ack, visible time.Duration
	err                 error
	ryw                 bool // every record of the batch visible to the marker query
}

type reconfigOp struct {
	start, changed, end time.Duration
	moved               int
	err                 error
	before, after       []answer // identity probes around the change
}

type writeChurn struct {
	c       *cluster.Cluster
	walDir  string
	seed    int64
	preds   []pps.BloomQuery // keyword pool, then date preds, then markers
	nKW     int
	nDate   int
	batches [][]int         // record indices per pre-generated batch
	newVers [][]pps.Encoded // the batch's new versions, aligned with batches
	reqs    [][]int         // predicate indices per request
	answers []answer        // per request; ids nil until answered

	// Filled by the background operations; read after they stop.
	mu        sync.Mutex
	epoch     time.Time
	vers      []version
	byRecord  [][]int // version indices per record, oldest first
	recIndex  map[uint64]int
	puts      []putOp
	reconfigs []reconfigOp
	probes    []answer // read-your-writes probe answers
	cache0    frontend.CacheStats
	cache1    frontend.CacheStats
}

func setupChurn(a setupArgs) (instance, error) {
	wal, err := os.MkdirTemp(a.dir, "wal-")
	if err != nil {
		return nil, err
	}
	c, err := startCluster(a.seed, wal)
	if err != nil {
		os.RemoveAll(wal)
		return nil, err
	}
	w := &writeChurn{c: c, walDir: wal, seed: a.seed}
	if err := w.load(a.requests, a.seconds); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *writeChurn) load(n int, seconds float64) error {
	enc := w.c.Enc
	docs := makeDocs(w.seed, churnRecords, churnVocab, 4)
	recs, err := encryptAll(enc, docs)
	if err != nil {
		return err
	}
	if err := w.c.LoadEncoded(recs); err != nil {
		return fmt.Errorf("loading corpus: %w", err)
	}
	w.recIndex = make(map[uint64]int, len(docs))
	for i, r := range recs {
		w.recIndex[r.ID] = i
		w.vers = append(w.vers, version{rec: r, appendAt: -never, visibleAt: -never})
		w.byRecord = append(w.byRecord, []int{i})
	}

	rng := rand.New(rand.NewSource(w.seed*31 + 13))
	pool := keywordPool(docs, churnKeywords, 2, 40, rng)
	for _, kw := range pool {
		w.preds = append(w.preds, mustPred(enc, pps.Predicate{Kind: pps.Keyword, Word: kw}))
	}
	w.nKW = len(w.preds)
	for _, p := range datePreds() {
		w.preds = append(w.preds, mustPred(enc, p))
	}
	w.nDate = len(w.preds) - w.nKW
	markers := make([]string, churnMarkers)
	for m := range markers {
		markers[m] = fmt.Sprintf("marker%02d", m)
		w.preds = append(w.preds, mustPred(enc, pps.Predicate{Kind: pps.Keyword, Word: markers[m]}))
	}

	// Queries: Zipf(s=1) over every keyword × date pair, ranked by a
	// seeded permutation.
	space := w.nKW * w.nDate
	perm := rng.Perm(space)
	qs := workload.NewQueryStream(uint64(space), 1.0, rng)
	draw := func() []int {
		k := perm[qs.Next()]
		return []int{k % w.nKW, w.nKW + k/w.nKW}
	}
	w.reqs = make([][]int, n)
	for i := range w.reqs {
		w.reqs[i] = draw()
	}
	w.answers = make([]answer, n)

	// Put batches walk a seeded permutation of the records, so a record
	// comes round again only every churnRecords/churnBatch batches. Each
	// new version keeps path, size and date and gets the batch's marker,
	// a pool keyword and a corpus word as its keywords.
	order := rng.Perm(len(docs))
	corpus := workload.NewCorpus(churnVocab, w.seed+1)
	// Enough batches for the paced stream to outlast the timed phase.
	nb := int(churnPutRate * (seconds + 4))
	var all []pps.Document
	for b := 0; b < nb; b++ {
		idx := make([]int, churnBatch)
		for j := range idx {
			r := order[(b*churnBatch+j)%len(order)]
			idx[j] = r
			d := docs[r]
			d.Keywords = []string{markers[b%churnMarkers], pool[rng.Intn(len(pool))], corpus.Word()}
			all = append(all, d)
		}
		w.batches = append(w.batches, idx)
	}
	enced, err := encryptAll(enc, all)
	if err != nil {
		return err
	}
	for b := range w.batches {
		w.newVers = append(w.newVers, enced[b*churnBatch:(b+1)*churnBatch])
	}

	specs := make([]frontend.QuerySpec, churnWarm)
	for i := range specs {
		specs[i] = frontend.QuerySpec{Enc: w.andQuery(draw()), CacheControl: proto.CacheBypass}
	}
	return warm(context.Background(), w.c.FE, specs, 8)
}

// andQuery builds the encrypted AND of the given predicates.
func (w *writeChurn) andQuery(preds []int) pps.Query {
	q := pps.Query{Op: pps.And}
	for _, p := range preds {
		q.Preds = append(q.Preds, w.preds[p])
	}
	return q
}

func (w *writeChurn) cluster() *cluster.Cluster { return w.c }

func (w *writeChurn) since() time.Duration { return time.Since(w.epoch) }

// ask runs one query and records its answer with its time window.
func (w *writeChurn) ask(ctx context.Context, preds []int, cc uint8) (answer, frontend.Result, error) {
	a := answer{preds: preds, call: w.since()}
	res, err := w.c.FE.Query(ctx, frontend.QuerySpec{Enc: w.andQuery(preds), CacheControl: cc})
	a.done = w.since()
	if err == nil {
		a.ids = append([]uint64{}, res.IDs...)
	}
	return a, res, err
}

func (w *writeChurn) query(ctx context.Context, i int) (frontend.Result, error) {
	a, res, err := w.ask(ctx, w.reqs[i], proto.CacheDefault)
	w.answers[i] = a
	return res, err
}

// background starts the put stream and the ChangeP cycle.
func (w *writeChurn) background(ctx context.Context, tr *tracer, epoch time.Time) func() {
	w.mu.Lock()
	w.epoch = epoch
	w.cache0 = w.c.FE.CacheStats()
	w.mu.Unlock()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.putLoop(ctx, stopCh, tr)
	}()
	go func() {
		defer wg.Done()
		w.reconfigLoop(ctx, stopCh, tr)
	}()
	return func() {
		close(stopCh)
		wg.Wait()
		w.mu.Lock()
		w.cache1 = w.c.FE.CacheStats()
		w.mu.Unlock()
	}
}

// putLoop issues one batch every 1/churnPutRate seconds: IngestPut, the
// ack observation the fe.put handler makes, WaitIngestDrained, the
// drained-watermark observation a polling client's fe.put reply
// carries, and then a read-your-writes probe through the cache.
func (w *writeChurn) putLoop(ctx context.Context, stop <-chan struct{}, tr *tracer) {
	start := time.Now()
	gap := time.Duration(float64(time.Second) / churnPutRate)
	for b := range w.batches {
		t := time.NewTimer(time.Until(start.Add(time.Duration(b) * gap)))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		w.put(ctx, b, tr)
	}
}

func (w *writeChurn) put(ctx context.Context, b int, tr *tracer) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	op := putOp{start: w.since()}
	seq, err := w.c.IngestPut(ctx, w.newVers[b]...)
	op.ack = w.since()
	w.mu.Lock()
	var vs []int
	for j, r := range w.batches[b] {
		w.vers = append(w.vers, version{rec: w.newVers[b][j], appendAt: op.start, visibleAt: never})
		vs = append(vs, len(w.vers)-1)
		w.byRecord[r] = append(w.byRecord[r], len(w.vers)-1)
	}
	w.mu.Unlock()
	if err == nil {
		w.c.FE.ObserveIngest(seq, 0)
		err = w.c.WaitIngestDrained(ctx, seq)
	}
	if err != nil {
		op.err = err
		w.mu.Lock()
		w.puts = append(w.puts, op)
		w.mu.Unlock()
		return
	}
	w.c.FE.ObserveIngest(seq, seq)
	op.visible = w.since()
	w.mu.Lock()
	for _, v := range vs {
		w.vers[v].visibleAt = op.visible
	}
	w.mu.Unlock()

	marker := w.nKW + w.nDate + b%churnMarkers
	a, _, qerr := w.ask(ctx, []int{marker}, proto.CacheDefault)
	op.ryw = qerr == nil
	for _, v := range vs {
		if !slices.Contains(a.ids, w.vers[v].rec.ID) {
			op.ryw = false
		}
	}
	w.mu.Lock()
	w.puts = append(w.puts, op)
	if qerr == nil {
		w.probes = append(w.probes, a)
	}
	w.mu.Unlock()
	if tr != nil {
		id := tr.newTrace()
		tr.add(
			span{trace: id, parent: -1, name: "op.put", start: op.start, end: op.visible},
			span{trace: id, parent: 0, name: "ingest.append", start: op.start, end: op.ack},
			span{trace: id, parent: 0, name: "ingest.drain", start: op.ack, end: op.visible},
		)
	}
}

// reconfigLoop alternates ChangeP(2) and ChangeP(4), each followed by
// SyncView, with identity probes before and after.
func (w *writeChurn) reconfigLoop(ctx context.Context, stop <-chan struct{}, tr *tracer) {
	p := clusterP
	for {
		t := time.NewTimer(churnReconfigEvery)
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		if p == clusterP {
			p = clusterP / 2
		} else {
			p = clusterP
		}
		w.reconfigure(ctx, p, tr)
	}
}

func (w *writeChurn) reconfigure(ctx context.Context, p int, tr *tracer) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	op := reconfigOp{before: w.identityProbes(ctx)}
	op.err = w.change(ctx, p, &op)
	op.after = w.identityProbes(ctx)
	w.mu.Lock()
	w.reconfigs = append(w.reconfigs, op)
	w.mu.Unlock()
	if tr != nil {
		id := tr.newTrace()
		tr.add(
			span{trace: id, parent: -1, name: "op.reconfig", start: op.start, end: op.end},
			span{trace: id, parent: 0, name: "membership.changep", start: op.start, end: op.changed},
			span{trace: id, parent: 0, name: "frontend.apply_view", start: op.changed, end: op.end},
		)
	}
}

// change runs ChangeP and SyncView while queries and puts go on,
// recording their times and the records that moved.
func (w *writeChurn) change(ctx context.Context, p int, op *reconfigOp) error {
	objs := func() []int {
		var out []int
		for _, n := range w.c.Nodes() {
			out = append(out, n.Stats().Objects)
		}
		return out
	}
	o0 := objs()
	op.start = w.since()
	err := w.c.Coord.ChangeP(ctx, p)
	op.changed = w.since()
	if err == nil {
		err = w.c.SyncView()
	}
	op.end = w.since()
	for i, o := range objs() {
		op.moved += abs(o - o0[i])
	}
	return err
}

// identityProbes runs the fixed probe set uncached.
func (w *writeChurn) identityProbes(ctx context.Context) []answer {
	out := make([]answer, churnProbes)
	for k := range out {
		a, _, err := w.ask(ctx, w.reqs[k], proto.CacheBypass)
		if err != nil {
			a.ids = nil
		}
		out[k] = a
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// verify checks every query answer against the record versions that
// could have been visible while it ran; a version counts from when its
// put started until a later version's drain was observed. The reference
// matches each version with a pps.Matcher run over the un-partitioned
// version list. It also checks read-your-writes after every drain and
// that id sets are identical across every ChangeP for records no put
// touched in between.
func (w *writeChurn) verify() check {
	used := map[int]bool{}
	for _, a := range w.answers {
		for _, p := range a.preds {
			used[p] = true
		}
	}
	for _, a := range w.probes {
		for _, p := range a.preds {
			used[p] = true
		}
	}
	for _, r := range w.reqs[:churnProbes] {
		for _, p := range r {
			used[p] = true
		}
	}
	recs := make([]pps.Encoded, len(w.vers))
	for v := range w.vers {
		recs[v] = w.vers[v].rec
	}
	match := predicateBits(w.c.Enc, recs, w.preds, used)
	var ck check
	for _, a := range w.answers {
		if a.ids != nil && !w.consistent(a, match) {
			ck.wrong++
		}
	}
	for _, op := range w.puts {
		ck.ops++
		if op.err != nil || !op.ryw {
			ck.opsFailed++
		}
	}
	if n := ck.opsFailed; n > 0 {
		ck.notes = append(ck.notes, fmt.Sprintf("%d puts failed or were not visible after their drain", n))
	}
	for _, a := range w.probes {
		ck.ops++
		if !w.consistent(a, match) {
			ck.opsFailed++
			ck.notes = append(ck.notes, "a read-your-writes probe answer differs from the reference")
		}
	}
	for _, op := range w.reconfigs {
		ck.ops++
		if op.err != nil {
			ck.opsFailed++
			ck.notes = append(ck.notes, fmt.Sprintf("ChangeP/SyncView failed: %v", op.err))
			continue
		}
		for k := range op.before {
			ck.ops++
			b, a := op.before[k], op.after[k]
			if !w.identical(b, a) || !w.consistent(b, match) || !w.consistent(a, match) {
				ck.opsFailed++
				ck.notes = append(ck.notes, "id set changed across a ChangeP")
			}
		}
	}
	return ck
}

// consistent reports whether an answer is explained by the versions
// visible during its window: every returned record has a candidate
// version that matches, every record left out one that does not, and
// no unknown id appears.
func (w *writeChurn) consistent(a answer, match []bitset) bool {
	in := make(map[uint64]bool, len(a.ids))
	for _, id := range a.ids {
		if _, ok := w.recIndex[id]; !ok {
			return false
		}
		in[id] = true
	}
	for _, vs := range w.byRecord {
		want := in[w.vers[vs[0]].rec.ID]
		ok := false
		for j, v := range vs {
			superseded := j+1 < len(vs) && w.vers[vs[j+1]].visibleAt <= a.call
			if superseded || w.vers[v].appendAt > a.done {
				continue
			}
			all := true
			for _, p := range a.preds {
				all = all && match[p].has(v)
			}
			if all == want {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// identical reports whether two probe answers agree on every record no
// put touched between the first's call and the second's completion.
func (w *writeChurn) identical(before, after answer) bool {
	if before.ids == nil || after.ids == nil {
		return false
	}
	touched := func(id uint64) bool {
		for _, v := range w.byRecord[w.recIndex[id]][1:] {
			if w.vers[v].appendAt <= after.done && w.vers[v].visibleAt >= before.call {
				return true
			}
		}
		return false
	}
	inB := map[uint64]bool{}
	for _, id := range before.ids {
		inB[id] = true
	}
	inA := map[uint64]bool{}
	for _, id := range after.ids {
		inA[id] = true
		if !inB[id] && !touched(id) {
			return false
		}
	}
	for id := range inB {
		if !inA[id] && !touched(id) {
			return false
		}
	}
	return true
}

func (w *writeChurn) report() ([]metric, []metric) {
	var ack, vis, lag, reconf, apply []float64
	puts, moved := 0, 0
	for _, op := range w.puts {
		puts++
		if op.err != nil {
			ack = append(ack, math.Inf(1))
			continue
		}
		ack = append(ack, ms(op.ack-op.start))
		vis = append(vis, ms(op.visible-op.start))
		lag = append(lag, ms(op.visible-op.ack))
	}
	for _, op := range w.reconfigs {
		reconf = append(reconf, ms(op.end-op.start))
		apply = append(apply, us(op.end-op.changed))
		moved += op.moved
	}
	ackS := sortedCopy(ack)
	tq := tailQuantile(len(ackS))
	inval := float64(w.cache1.Invalidations - w.cache0.Invalidations)
	e2e := []metric{
		{"put_ack_p50_ms", "ms", nanToZero(quantile(ackS, 0.5))},
		{fmt.Sprintf("put_ack_p%g_ms", 100*tq), "ms", nanToZero(quantile(ackS, tq))},
		{"visible_p50_ms", "ms", nanToZero(median(vis))},
		{"reconfig_p50_ms", "ms", nanToZero(median(reconf))},
		{"puts", "count", float64(puts)},
		{"changeps", "count", float64(len(w.reconfigs))},
	}
	layers := []metric{
		{"frontend.cache_invalidations_per_put", "count", ratio(inval, float64(puts))},
		{"frontend.apply_view_us", "us", nanToZero(median(apply))},
		{"ingest.drain_lag_p50_ms", "ms", nanToZero(median(lag))},
		{"membership.records_moved_per_changep", "count", ratio(float64(moved), float64(len(w.reconfigs)))},
	}
	return e2e, layers
}

func (w *writeChurn) close() {
	w.c.Close()
	os.RemoveAll(w.walDir)
}
