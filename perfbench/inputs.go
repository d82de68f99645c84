package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"roar/internal/pps"
	"roar/internal/workload"
)

// corpusEpoch is where the synthetic corpus's modification dates start
// (workload.Corpus spreads them over the following year).
var corpusEpoch = time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC)

// dateStepDays and datePoints give the date predicates: one reference
// point every two weeks across the corpus's year.
const (
	dateStepDays = 14
	datePoints   = 27
)

// encoderConfig is the PPS encoding of the benchmark's corpora. It keeps
// the words per record (4 keywords, the path, one size point and the
// date signature) and the hash count small, so encrypting a 20k-record
// corpus stays a small part of set-up; matching cost per record, which
// the node pays, is set by the early-exit scan and barely depends on it.
func encoderConfig() pps.EncoderConfig {
	return pps.EncoderConfig{
		MaxKeywords: 4,
		MaxPathDir:  6,
		SizePoints:  []float64{1e4},
		DateDays:    dateStepDays,
		DateSpan:    datePoints,
		RankBuckets: []int{},
		Epoch:       corpusEpoch,
		Hashes:      6,
		BitsPerWord: 12,
	}
}

// datePreds returns every date predicate queries draw from: after and
// before each interior reference point.
func datePreds() []pps.Predicate {
	var out []pps.Predicate
	for i := 1; i < datePoints; i++ {
		v := float64(i * dateStepDays)
		out = append(out, pps.Predicate{Kind: pps.DateAfter, Value: v}, pps.Predicate{Kind: pps.DateBefore, Value: v})
	}
	return out
}

// makeDocs generates n documents from the seed with distinct random
// ids. keep bounds the keywords per document (0 keeps all of them).
func makeDocs(seed int64, n, vocab, keep int) []pps.Document {
	files := workload.NewCorpus(vocab, seed).Generate(n)
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	seen := make(map[uint64]bool, n)
	docs := make([]pps.Document, n)
	for i, f := range files {
		id := rng.Uint64()
		for seen[id] {
			id = rng.Uint64()
		}
		seen[id] = true
		kws := f.Keywords
		if keep > 0 && len(kws) > keep {
			kws = kws[:keep]
		}
		docs[i] = pps.Document{ID: id, Path: f.Path, Size: f.Size, Modified: f.Modified, Keywords: kws}
	}
	return docs
}

// encryptAll encrypts docs on every core.
func encryptAll(enc *pps.Encoder, docs []pps.Document) ([]pps.Encoded, error) {
	recs := make([]pps.Encoded, len(docs))
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				r, err := enc.EncryptDocument(docs[i])
				if err != nil {
					errs[w] = err
					return
				}
				recs[i] = r
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("encrypting corpus: %w", err)
		}
	}
	return recs, nil
}

// keywordPool returns up to k distinct corpus keywords that occur in
// minDocs to maxDocs documents, in a seeded random order. The band keeps
// the cost of a keyword predicate, which grows with its matches, alike
// across queries and seeds.
func keywordPool(docs []pps.Document, k, minDocs, maxDocs int, rng *rand.Rand) []string {
	counts := map[string]int{}
	for _, d := range docs {
		for _, w := range d.Keywords {
			counts[w]++
		}
	}
	var words []string
	for w, c := range counts {
		if c >= minDocs && c <= maxDocs {
			words = append(words, w)
		}
	}
	sort.Strings(words)
	rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
	if len(words) > k {
		words = words[:k]
	}
	return words
}

// splitmix64 is a fixed integer hash: it maps a seed and a rank to
// query parameters without storing the query space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digest is an order-sensitive hash of an id list.
func digest(ids []uint64) uint64 {
	h := uint64(len(ids))
	for _, id := range ids {
		h = splitmix64(h ^ id)
	}
	return h
}
