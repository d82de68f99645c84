package pps

import (
	"fmt"
	"sort"
)

// ServerParams are the public parameters a matching server needs: only
// the Bloom filter size. No key material ever reaches the server.
type ServerParams struct {
	MBits int
}

// matchBloomBits is the generic (allocating) server-side matching
// reference used by MatchOne. The hot path lives in Run, which evaluates
// the same function through a reusable zero-allocation PRF kernel; this
// form is kept as the plain-Go oracle the kernel is tested (and
// benchmarked, BenchmarkMatchKernel/legacy) against.
func matchBloomBits(mBits int, q BloomQuery, m BloomMetadata) bool {
	for _, x := range q.Trapdoor {
		pos := int(prfUint64(m.Nonce, x) % uint64(mBits))
		if !getBit(m.Filter, pos) {
			return false
		}
	}
	return true
}

// Matcher evaluates encrypted queries against encrypted metadata on the
// server. It is stateless and safe for concurrent use.
type Matcher struct {
	mBits int
}

// NewMatcher builds a matcher from public parameters.
func NewMatcher(p ServerParams) (*Matcher, error) {
	if p.MBits <= 0 {
		return nil, fmt.Errorf("pps: matcher needs positive MBits, got %d", p.MBits)
	}
	return &Matcher{mBits: p.MBits}, nil
}

// MatchOne evaluates a single predicate. One-shot convenience: it pays
// a fresh HMAC key schedule per hash evaluation and ignores any
// prepared key. Batch callers should use a Run, whose kernel keys once
// per record, or not at all for records prepared by PrepareKeys.
func (m *Matcher) MatchOne(q BloomQuery, md BloomMetadata) bool {
	return matchBloomBits(m.mBits, q, md)
}

// SelectivitySamples is the number of metadata sampled before predicates
// are re-ordered by selectivity. §5.6.5 derives 225 from Chebyshev's
// inequality for ±0.1 selectivity accuracy at ~89% confidence.
const SelectivitySamples = 225

// Run is the per-query matching state implementing dynamic predicate
// ordering (§5.6.5): the first SelectivitySamples records are matched
// against every predicate while counting per-predicate selectivity;
// afterwards predicates are sorted (most selective first for AND, least
// selective first for OR) and evaluation short-circuits.
//
// Run owns a reusable PRF kernel. For a record carrying a prepared key
// (PrepareKeys) the kernel loads that key schedule; otherwise it is
// re-keyed from the record nonce. Either way the settled-order steady
// state performs zero heap allocations per record. Run is not safe for
// concurrent use; create one per matching thread and merge results, or
// share one behind the store's batching.
type Run struct {
	m       *Matcher
	q       Query
	counts  []int // matches per predicate during sampling
	sampled int
	order   []int // settled evaluation order (nil until settled)
	prf     prfKernel
}

// NewRun starts the matching state for one query.
func (m *Matcher) NewRun(q Query) *Run {
	r := &Run{m: m, q: q, counts: make([]int, len(q.Preds))}
	r.prf.init()
	return r
}

// Sampled reports how many records contributed to selectivity estimates.
func (r *Run) Sampled() int { return r.sampled }

// Order returns the settled predicate order, or nil while sampling.
func (r *Run) Order() []int { return r.order }

// evalPred checks one predicate against the record the kernel is
// currently keyed for (Match keys it per record first).
func (r *Run) evalPred(q BloomQuery, filter []byte) bool {
	mBits := uint64(r.m.mBits)
	for _, x := range q.Trapdoor {
		if !getBit(filter, int(r.prf.sum64(x)%mBits)) {
			return false
		}
	}
	return true
}

// Match evaluates the full query against one record.
func (r *Run) Match(md BloomMetadata) bool {
	if len(r.q.Preds) == 0 {
		return false
	}
	if md.key == nil || !r.prf.loadKey(md.key, md.Nonce) {
		r.prf.setKey(md.Nonce)
	}
	if len(r.q.Preds) == 1 {
		return r.evalPred(r.q.Preds[0], md.Filter)
	}
	if r.order == nil {
		return r.sampleMatch(md)
	}
	return r.orderedMatch(md)
}

// MatchBatch evaluates the query against a batch of records, appending
// matching IDs to out and returning the extended slice. It is the
// store's §5.6.3 consumer entry point: with a settled order and a
// pre-grown out slice the whole scan is allocation-free.
func (r *Run) MatchBatch(recs []Encoded, out []uint64) []uint64 {
	for i := range recs {
		if r.Match(recs[i].BloomMetadata) {
			out = append(out, recs[i].ID)
		}
	}
	return out
}

func (r *Run) sampleMatch(md BloomMetadata) bool {
	// Evaluate every predicate to learn selectivities.
	all := true
	any := false
	for i := range r.q.Preds {
		if r.evalPred(r.q.Preds[i], md.Filter) {
			r.counts[i]++
			any = true
		} else {
			all = false
		}
	}
	r.sampled++
	if r.sampled >= SelectivitySamples {
		r.settle()
	}
	if r.q.Op == And {
		return all
	}
	return any
}

func (r *Run) settle() {
	r.order = make([]int, len(r.q.Preds))
	for i := range r.order {
		r.order[i] = i
	}
	asc := r.q.Op == And // AND: fewest matches (most selective) first
	sort.SliceStable(r.order, func(a, b int) bool {
		ca, cb := r.counts[r.order[a]], r.counts[r.order[b]]
		if asc {
			return ca < cb
		}
		return ca > cb
	})
}

func (r *Run) orderedMatch(md BloomMetadata) bool {
	if r.q.Op == And {
		for _, i := range r.order {
			if !r.evalPred(r.q.Preds[i], md.Filter) {
				return false
			}
		}
		return true
	}
	for _, i := range r.order {
		if r.evalPred(r.q.Preds[i], md.Filter) {
			return true
		}
	}
	return false
}

// MatchAll is a convenience helper matching a query against a slice of
// records, returning the IDs of matches. It uses a fresh Run, so
// dynamic ordering is exercised exactly as a server would.
func (m *Matcher) MatchAll(q Query, mds []Encoded) []uint64 {
	run := m.NewRun(q)
	return run.MatchBatch(mds, nil)
}
