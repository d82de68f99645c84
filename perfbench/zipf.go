package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"roar/internal/cluster"
	"roar/internal/frontend"
	"roar/internal/index"
	"roar/internal/proto"
	"roar/internal/workload"
)

// index-zipf: plaintext index queries of one or two terms (AND/OR, with
// and without a limit) whose popularity is Zipf(s=1) over zipfSpace
// distinct queries. The segment holds every keyword of zipfDocs
// documents and is attached to every node from one file on disk.
const (
	zipfDocs  = 20000
	zipfVocab = 20000
	zipfSpace = 200000
	// Query terms come from zipfTerms vocabulary words starting at rank
	// zipfTermSkip: the very commonest words would make most answers
	// near-full id lists.
	zipfTermSkip = 40
	zipfTerms    = 4000
	// zipfIndexBudget is each node's posting-cache budget in bytes.
	zipfIndexBudget = 1 << 20
	// zipfWarm is the number of head ranks issued before timing to fill
	// the result cache.
	zipfWarm = 4000
)

type indexZipf struct {
	c        *cluster.Cluster
	seed     int64
	ixs      []*index.Index
	ranks    []uint64
	digests  []uint64 // digest of the answer per request
	answered []bool
}

func setupZipf(a setupArgs) (instance, error) {
	c, err := startCluster(a.seed, "")
	if err != nil {
		return nil, err
	}
	z := &indexZipf{c: c, seed: a.seed, digests: make([]uint64, a.requests), answered: make([]bool, a.requests)}
	if err := z.load(a.dir, a.requests); err != nil {
		z.close()
		return nil, err
	}
	return z, nil
}

func (z *indexZipf) load(dir string, n int) error {
	b := index.NewBuilder()
	for _, d := range makeDocs(z.seed, zipfDocs, zipfVocab, 0) {
		b.Add(d.ID, d.Keywords...)
	}
	path := filepath.Join(dir, "corpus.seg")
	if err := index.SaveFile(path, b.Build("corpus")); err != nil {
		return err
	}
	for _, nd := range z.c.Nodes() {
		ix := index.New(zipfIndexBudget)
		if err := ix.AddFile(path); err != nil {
			return fmt.Errorf("attaching segment: %w", err)
		}
		z.ixs = append(z.ixs, ix)
		nd.SetIndex(ix)
	}
	qs := workload.NewQueryStream(zipfSpace, 1.0, rand.New(rand.NewSource(z.seed*31+11)))
	z.ranks = make([]uint64, n)
	for i := range z.ranks {
		z.ranks[i] = qs.Next()
	}
	specs := make([]frontend.QuerySpec, zipfWarm)
	for r := range specs {
		pq := z.plainQuery(uint64(r))
		specs[r] = frontend.QuerySpec{Plain: &pq}
	}
	return warm(context.Background(), z.c.FE, specs, 16)
}

// plainQuery maps a popularity rank to its query, fixed by the seed.
func (z *indexZipf) plainQuery(rank uint64) proto.PlainQuery {
	h := splitmix64(uint64(z.seed)<<32 ^ rank)
	term := func(x uint64) string { return fmt.Sprintf("w%05d", zipfTermSkip+int(x%zipfTerms)) }
	pq := proto.PlainQuery{Terms: []string{term(h)}}
	h2 := splitmix64(h)
	if h2&1 == 1 {
		if t := term(h2 >> 8); t != pq.Terms[0] {
			pq.Terms = append(pq.Terms, t)
		}
		pq.Mode = uint8((h2 >> 4) & 1) // index.ModeAnd or index.ModeOr
	}
	pq.Limit = []int{0, 0, 10, 100}[(h2>>40)%4]
	return pq
}

func (z *indexZipf) cluster() *cluster.Cluster { return z.c }

func (z *indexZipf) query(ctx context.Context, i int) (frontend.Result, error) {
	pq := z.plainQuery(z.ranks[i])
	res, err := z.c.FE.Query(ctx, frontend.QuerySpec{Plain: &pq})
	if err == nil {
		z.digests[i] = digest(res.IDs)
		z.answered[i] = true
	}
	return res, err
}

func (z *indexZipf) background(context.Context, *tracer, time.Time) func() { return func() {} }

// verify compares every answer with a brute-force term match over the
// documents, generated again from the seed: posting lists built by
// scanning every document's terms, combined per query, cut to the
// smallest Limit ids.
func (z *indexZipf) verify() check {
	post := map[string][]uint64{}
	for _, d := range makeDocs(z.seed, zipfDocs, zipfVocab, 0) {
		for _, t := range d.Keywords {
			post[t] = append(post[t], d.ID)
		}
	}
	for _, ids := range post {
		slices.Sort(ids)
	}
	want := map[uint64]uint64{}
	var ck check
	for i, r := range z.ranks {
		if !z.answered[i] {
			continue
		}
		d, ok := want[r]
		if !ok {
			pq := z.plainQuery(r)
			ids := post[pq.Terms[0]]
			for _, t := range pq.Terms[1:] {
				if index.Mode(pq.Mode) == index.ModeOr {
					ids = union(ids, post[t])
				} else {
					ids = intersect(ids, post[t])
				}
			}
			if pq.Limit > 0 && len(ids) > pq.Limit {
				ids = ids[:pq.Limit]
			}
			d = digest(ids)
			want[r] = d
		}
		if d != z.digests[i] {
			ck.wrong++
		}
	}
	return ck
}

func (z *indexZipf) report() ([]metric, []metric) { return nil, nil }

func (z *indexZipf) close() {
	z.c.Close()
	for _, ix := range z.ixs {
		_ = ix.Close() // read-only segment files; nothing to lose
	}
}

// intersect returns the ids in both sorted sets.
func intersect(a, b []uint64) []uint64 {
	out := []uint64{}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// union returns the ids in either sorted set.
func union(a, b []uint64) []uint64 {
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
