package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/pps"
	"roar/internal/proto"
)

// scan-unique: encrypted one-keyword-AND-one-date queries over a
// 20k-record corpus, drawn from scanKeywords × len(datePreds()) ≈ 19k
// combinations, so only a few percent of a run's queries repeat.
const (
	scanRecords  = 20000
	scanVocab    = 20000
	scanKeywords = 365
	scanWarm     = 64
)

type scanUnique struct {
	c     *cluster.Cluster
	recs  []pps.Encoded
	kw    []pps.BloomQuery // keyword trapdoors
	dates []pps.BloomQuery // date trapdoors
	reqs  []encReq
	got   [][]uint64 // answer per request; nil until answered
}

// encReq is one encrypted query: the indices of its predicates.
type encReq struct {
	kw, date int
	q        pps.Query
}

func setupScan(a setupArgs) (instance, error) {
	c, err := startCluster(a.seed, "")
	if err != nil {
		return nil, err
	}
	s := &scanUnique{c: c, got: make([][]uint64, a.requests)}
	if err := s.load(a.seed, a.requests); err != nil {
		c.Close()
		return nil, err
	}
	return s, nil
}

func (s *scanUnique) load(seed int64, n int) error {
	docs := makeDocs(seed, scanRecords, scanVocab, 4)
	recs, err := encryptAll(s.c.Enc, docs)
	if err != nil {
		return err
	}
	s.recs = recs
	if err := s.c.LoadEncoded(recs); err != nil {
		return fmt.Errorf("loading corpus: %w", err)
	}
	rng := rand.New(rand.NewSource(seed*31 + 7))
	for _, w := range keywordPool(docs, scanKeywords, 2, 40, rng) {
		s.kw = append(s.kw, mustPred(s.c.Enc, pps.Predicate{Kind: pps.Keyword, Word: w}))
	}
	for _, p := range datePreds() {
		s.dates = append(s.dates, mustPred(s.c.Enc, p))
	}
	draw := func() encReq {
		r := encReq{kw: rng.Intn(len(s.kw)), date: rng.Intn(len(s.dates))}
		r.q = pps.Query{Op: pps.And, Preds: []pps.BloomQuery{s.kw[r.kw], s.dates[r.date]}}
		return r
	}
	s.reqs = make([]encReq, n)
	for i := range s.reqs {
		s.reqs[i] = draw()
	}
	// Warm-up queries bypass the result cache, which stays cold.
	specs := make([]frontend.QuerySpec, scanWarm)
	for i := range specs {
		specs[i] = frontend.QuerySpec{Enc: draw().q, CacheControl: proto.CacheBypass}
	}
	return warm(context.Background(), s.c.FE, specs, 8)
}

// mustPred encrypts one predicate; the benchmark only builds kinds the
// encoder is configured for, so an error is a bug.
func mustPred(enc *pps.Encoder, p pps.Predicate) pps.BloomQuery {
	bq, err := enc.EncryptPredicate(p)
	if err != nil {
		panic(err)
	}
	return bq
}

func (s *scanUnique) cluster() *cluster.Cluster { return s.c }

func (s *scanUnique) query(ctx context.Context, i int) (frontend.Result, error) {
	res, err := s.c.FE.Query(ctx, frontend.QuerySpec{Enc: s.reqs[i].q})
	if err == nil {
		s.got[i] = append([]uint64{}, res.IDs...)
	}
	return res, err
}

func (s *scanUnique) background(context.Context, *tracer, time.Time) func() { return func() {} }

// verify compares every answer with a reference pps.Matcher evaluation
// over one un-partitioned copy of the records. Each distinct predicate
// is evaluated once over all records; a query's expected set is the
// intersection of its two predicates' sets, which is what Run.Match
// computes for an AND.
func (s *scanUnique) verify() check {
	kwUsed, dateUsed := map[int]bool{}, map[int]bool{}
	for i, r := range s.reqs {
		if s.got[i] != nil {
			kwUsed[r.kw], dateUsed[r.date] = true, true
		}
	}
	kwBits := predicateBits(s.c.Enc, s.recs, s.kw, kwUsed)
	dateBits := predicateBits(s.c.Enc, s.recs, s.dates, dateUsed)
	var ck check
	for i, r := range s.reqs {
		if s.got[i] == nil {
			continue
		}
		want := []uint64{}
		kb, db := kwBits[r.kw], dateBits[r.date]
		for w := range kb {
			for x := kb[w] & db[w]; x != 0; x &= x - 1 {
				want = append(want, s.recs[64*w+bits.TrailingZeros64(x)].ID)
			}
		}
		slices.Sort(want)
		if !slices.Equal(sortedIDs(s.got[i]), want) {
			ck.wrong++
		}
	}
	return ck
}

func (s *scanUnique) report() ([]metric, []metric) { return nil, nil }

func (s *scanUnique) close() { s.c.Close() }

// bitset holds one bit per record index.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

// predicateBits evaluates each used predicate over recs with a fresh
// pps.Matcher run, spread over parallelism() goroutines. out[p] has bit
// i set when predicate p matches recs[i]; unused predicates get nil.
func predicateBits(enc *pps.Encoder, recs []pps.Encoded, preds []pps.BloomQuery, used map[int]bool) []bitset {
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		panic(err)
	}
	out := make([]bitset, len(preds))
	todo := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, parallelism()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range todo {
				run := m.NewRun(pps.Query{Op: pps.And, Preds: []pps.BloomQuery{preds[p]}})
				b := make(bitset, (len(recs)+63)/64)
				for i := range recs {
					if run.Match(recs[i].BloomMetadata) {
						b[i/64] |= 1 << (i % 64)
					}
				}
				out[p] = b
			}
		}()
	}
	for p := range preds {
		if used[p] {
			todo <- p
		}
	}
	close(todo)
	wg.Wait()
	return out
}

// sortedIDs returns ids sorted ascending (a copy).
func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64{}, ids...)
	slices.Sort(out)
	return out
}
