package pps

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestKernelMatchesGenericPRF: the reusable kernel must be bit-identical
// to the crypto/hmac reference for every key/data shape we use (16-byte
// nonces, 32-byte derived sub-keys) plus edge cases (empty data, long
// keys that trigger the RFC 2104 pre-hash).
func TestKernelMatchesGenericPRF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var k prfKernel
	k.init()
	for _, keyLen := range []int{1, 16, 32, 64, 65, 200} {
		for _, dataLen := range []int{0, 1, 8, 16, 32, 100} {
			key := make([]byte, keyLen)
			rng.Read(key)
			k.setKey(key)
			for trial := 0; trial < 4; trial++ { // repeated evals on one key
				data := make([]byte, dataLen)
				rng.Read(data)
				want := prf(key, data)
				var scratch [32]byte
				got := k.sumInto(data, scratch[:0])
				if !bytes.Equal(got, want) {
					t.Fatalf("kernel mismatch at keyLen=%d dataLen=%d", keyLen, dataLen)
				}
				if k.sum64(data) != prfUint64(key, data) {
					t.Fatalf("sum64 mismatch at keyLen=%d dataLen=%d", keyLen, dataLen)
				}
			}
		}
	}
}

// TestKernelRekeying: interleaved re-keying (the per-record pattern)
// never leaks state between keys.
func TestKernelRekeying(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var k prfKernel
	k.init()
	keys := make([][]byte, 8)
	for i := range keys {
		keys[i] = make([]byte, 16)
		rng.Read(keys[i])
	}
	data := []byte("trapdoor-element-0123456789abcdef")
	for trial := 0; trial < 64; trial++ {
		key := keys[rng.Intn(len(keys))]
		k.setKey(key)
		if got, want := k.sum64(data), prfUint64(key, data); got != want {
			t.Fatalf("trial %d: kernel %x != reference %x after re-keying", trial, got, want)
		}
	}
}

// TestKernelFallbackPath: with midstate checkpointing disabled the
// replay path must produce the same digests.
func TestKernelFallbackPath(t *testing.T) {
	var k prfKernel
	k.init()
	k.canSave = false
	key := []byte("0123456789abcdef")
	k.setKey(key)
	data := []byte("payload")
	if got, want := k.sum64(data), prfUint64(key, data); got != want {
		t.Fatalf("fallback path diverges: %x != %x", got, want)
	}
}

// kernelCorpus builds a deterministic corpus plus an AND query whose
// predicates all hit `hitEvery`-th record.
func kernelCorpus(t testing.TB, n, preds int) (*Matcher, Query, []Encoded) {
	t.Helper()
	key := TestKey(42)
	enc := NewEncoder(key, EncoderConfig{Hashes: 4, BitsPerWord: 12})
	mds := make([]Encoded, 0, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		kws := []string{"common"}
		if i%3 == 0 {
			kws = append(kws, "sparse")
		}
		kws = append(kws, fmt.Sprintf("unique-%d", i))
		e, err := enc.EncryptDocument(Document{
			ID:       rng.Uint64(),
			Path:     "/home/user/docs",
			Size:     int64(1000 + i),
			Modified: time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
			Keywords: kws,
		})
		if err != nil {
			t.Fatal(err)
		}
		mds = append(mds, e)
	}
	ps := []Predicate{{Kind: Keyword, Word: "common"}, {Kind: Keyword, Word: "sparse"}}
	for len(ps) < preds {
		ps = append(ps, Predicate{Kind: PathComponent, Word: "docs"})
	}
	q, err := enc.EncryptQuery(And, ps[:preds]...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	return m, q, mds
}

// TestRunMatchesLegacyKernel: the kernel-backed Run must agree with the
// generic MatchOne evaluation on every record, before and after the
// order settles.
func TestRunMatchesLegacyKernel(t *testing.T) {
	m, q, mds := kernelCorpus(t, SelectivitySamples+200, 2)
	run := m.NewRun(q)
	for i := range mds {
		want := true
		for _, p := range q.Preds {
			if !m.MatchOne(p, mds[i].BloomMetadata) {
				want = false
				break
			}
		}
		if got := run.Match(mds[i].BloomMetadata); got != want {
			t.Fatalf("record %d (settled=%v): kernel=%v legacy=%v", i, run.Order() != nil, got, want)
		}
	}
	if run.Order() == nil {
		t.Fatal("order never settled")
	}
}

// TestMatchBatchMatchesMatch: batch and single-record entry points agree.
func TestMatchBatchMatchesMatch(t *testing.T) {
	m, q, mds := kernelCorpus(t, 400, 2)
	single := m.NewRun(q)
	var want []uint64
	for i := range mds {
		if single.Match(mds[i].BloomMetadata) {
			want = append(want, mds[i].ID)
		}
	}
	batch := m.NewRun(q)
	got := batch.MatchBatch(mds, nil)
	if len(got) != len(want) {
		t.Fatalf("MatchBatch found %d ids, Match found %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("id %d: MatchBatch %d != Match %d", i, got[i], want[i])
		}
	}
}

// TestMatchSteadyStateZeroAlloc is the acceptance gate: once the
// predicate order settles, matching a record performs no heap
// allocations, whether the record is re-keyed from its nonce or carries
// a prepared key.
func TestMatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	m, q, raw := kernelCorpus(t, SelectivitySamples+64, 3)
	for name, mds := range map[string][]Encoded{"raw": raw, "prepared": PrepareKeys(raw)} {
		run := m.NewRun(q)
		for i := 0; i < SelectivitySamples; i++ {
			run.Match(mds[i%len(mds)].BloomMetadata)
		}
		if run.Order() == nil {
			t.Fatalf("%s: order did not settle", name)
		}
		steady := mds[SelectivitySamples:]
		out := make([]uint64, 0, len(steady))
		allocs := testing.AllocsPerRun(50, func() {
			out = run.MatchBatch(steady, out[:0])
		})
		if allocs != 0 {
			t.Fatalf("%s: settled-order MatchBatch allocates %.1f objects per scan, want 0", name, allocs)
		}
	}
}

// BenchmarkMatchKernel compares the pre-change matching kernel (generic
// crypto/hmac per hash evaluation, as MatchOne still does) against the
// reusable zero-allocation kernel re-keyed per record ("kernel") and
// the same kernel over records carrying prepared keys, as a serving
// node stores them ("prepared"), all in the settled-order steady state.
// Run with -benchmem; compare sub-benchmarks with benchstat.
func BenchmarkMatchKernel(b *testing.B) {
	m, q, mds := kernelCorpus(b, SelectivitySamples+1024, 3)
	steady := mds[SelectivitySamples:]

	// Settle one run to copy its order for the legacy loop.
	settle := m.NewRun(q)
	for i := 0; i < SelectivitySamples; i++ {
		settle.Match(mds[i].BloomMetadata)
	}
	order := settle.Order()
	if order == nil {
		b.Fatal("order did not settle")
	}

	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		matched := 0
		for i := 0; i < b.N; i++ {
			md := steady[i%len(steady)].BloomMetadata
			ok := true
			for _, p := range order {
				if !m.MatchOne(q.Preds[p], md) {
					ok = false
					break
				}
			}
			if ok {
				matched++
			}
		}
		b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
	})
	kernel := func(recs []Encoded) func(b *testing.B) {
		return func(b *testing.B) {
			run := m.NewRun(q)
			for i := 0; i < SelectivitySamples; i++ {
				run.Match(recs[i].BloomMetadata)
			}
			steady := recs[SelectivitySamples:]
			b.ReportAllocs()
			b.ResetTimer()
			matched := 0
			for i := 0; i < b.N; i++ {
				if run.Match(steady[i%len(steady)].BloomMetadata) {
					matched++
				}
			}
			b.ReportMetric(float64(matched)/float64(b.N), "hit-rate")
		}
	}
	b.Run("kernel", kernel(mds))
	b.Run("prepared", kernel(PrepareKeys(mds)))
}

// BenchmarkEncryptMetadata measures the write-side path the pooled
// encode kernels accelerate (replica pushes encrypt whole corpora).
func BenchmarkEncryptMetadata(b *testing.B) {
	key := TestKey(42)
	s := NewBloom(key, BloomConfig{MaxWords: 64, Hashes: 4, BitsPerWord: 12})
	words := make([]string, 32)
	for i := range words {
		words[i] = fmt.Sprintf("kw=word-%d", i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncryptMetadata(words); err != nil {
			b.Fatal(err)
		}
	}
}
