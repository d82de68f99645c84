package pps

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// preparedNonceLens are the nonce lengths the prepared-key path must
// handle: around the 16-byte default, the 64-byte block boundary and the
// RFC 2104 pre-hash of longer keys.
var preparedNonceLens = []int{1, 16, 32, 64, 65, 200}

// blindWithNonce builds words' filter under an explicit nonce, so tests
// can exercise nonce lengths EncryptMetadata never produces.
func blindWithNonce(s *Bloom, words []string, rnd []byte) BloomMetadata {
	filter := make([]byte, (s.mBits+7)/8)
	for _, w := range words {
		for _, k := range s.subkeys {
			setBit(filter, s.codeword(rnd, prf(k, []byte(w))))
		}
	}
	return BloomMetadata{Nonce: rnd, Filter: filter}
}

// preparedCorpus returns n records with random nonce lengths; word i of
// the vocabulary appears with probability (i+1)/(len+1), so predicates
// differ in selectivity and the settled order is not the input order.
func preparedCorpus(rng *rand.Rand, s *Bloom, vocab []string, n int) []Encoded {
	recs := make([]Encoded, n)
	for i := range recs {
		rnd := make([]byte, preparedNonceLens[rng.Intn(len(preparedNonceLens))])
		rng.Read(rnd)
		var words []string
		for w, word := range vocab {
			if rng.Intn(len(vocab)+1) <= w {
				words = append(words, word)
			}
		}
		recs[i] = Encoded{ID: uint64(i), BloomMetadata: blindWithNonce(s, words, rnd)}
	}
	return recs
}

// TestKernelLoadKeyMatchesSetKey: a kernel keyed by loadKey from a
// prepared schedule evaluates bit-identically to the HMAC reference,
// interleaved with setKey re-keying and after a demotion to the
// pad-replay path (whose pads loadKey never derived).
func TestKernelLoadKeyMatchesSetKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var prep, k prfKernel
	prep.init()
	k.init()
	data := []byte("trapdoor-element-0123456789abcdef")
	for trial := 0; trial < 64; trial++ {
		rnd := make([]byte, preparedNonceLens[trial%len(preparedNonceLens)])
		rng.Read(rnd)
		var nk NonceKey
		if !prep.fillNonceKey(&nk, rnd) {
			t.Fatal("fillNonceKey failed on crypto/sha256")
		}
		if trial%3 == 0 { // interleave a plain re-key
			other := make([]byte, 16)
			rng.Read(other)
			k.setKey(other)
		}
		if !k.loadKey(&nk, rnd) {
			t.Fatalf("trial %d: loadKey refused a keyed kernel", trial)
		}
		if got, want := k.sum64(data), prfUint64(rnd, data); got != want {
			t.Fatalf("trial %d (nonce %d B): loaded key %x != reference %x", trial, len(rnd), got, want)
		}
	}

	var fresh prfKernel
	fresh.init()
	var nk NonceKey
	rnd := []byte("0123456789abcdef")
	prep.fillNonceKey(&nk, rnd)
	if fresh.loadKey(&nk, rnd) {
		t.Fatal("loadKey succeeded without a checkpoint template")
	}
	fresh.setKey([]byte("template"))
	if !fresh.loadKey(&nk, rnd) {
		t.Fatal("loadKey refused a keyed kernel")
	}
	fresh.canSave = false // demote after the load: pads must be re-derived
	if got, want := fresh.sum64(data), prfUint64(rnd, data); got != want {
		t.Fatalf("replay after loadKey diverges: %x != %x", got, want)
	}
}

// TestPreparedMatchEquivalence: matching prepared records returns the
// same decisions as matching the raw records, and as the MatchOne
// oracle, for random AND/OR predicate mixes before and after the order
// settles, with and without midstate checkpointing.
func TestPreparedMatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := NewBloom(TestKey(9), BloomConfig{MaxWords: 16, Hashes: 4, BitsPerWord: 12})
	vocab := make([]string, 10)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw=%d", i)
	}
	raw := preparedCorpus(rng, s, vocab, SelectivitySamples+300)
	prepared := PrepareKeys(raw)
	for i := range raw {
		if raw[i].key != nil {
			t.Fatal("PrepareKeys modified its input")
		}
		if prepared[i].key == nil {
			t.Fatalf("record %d (nonce %d B) not prepared", i, len(raw[i].Nonce))
		}
	}
	m, err := NewMatcher(ServerParams{MBits: s.MBits()})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := 0, 0
	for trial := 0; trial < 40; trial++ {
		op := BoolOp(rng.Intn(2))
		q := Query{Op: op}
		for p := 1 + rng.Intn(4); p > 0; p-- {
			q.Preds = append(q.Preds, s.EncryptQuery(vocab[rng.Intn(len(vocab))]))
		}
		for _, canSave := range []bool{true, false} {
			plain, prep := m.NewRun(q), m.NewRun(q)
			plain.prf.canSave, prep.prf.canSave = canSave, canSave
			for i := range raw {
				want := op == And
				for _, bq := range q.Preds {
					if m.MatchOne(bq, raw[i].BloomMetadata) != (op == And) {
						want = !want
						break
					}
				}
				got, ref := prep.Match(prepared[i].BloomMetadata), plain.Match(raw[i].BloomMetadata)
				if got != ref || got != want {
					t.Fatalf("trial %d canSave=%v record %d (settled=%v): prepared=%v raw=%v oracle=%v",
						trial, canSave, i, prep.Order() != nil, got, ref, want)
				}
				if got {
					hits++
				} else {
					misses++
				}
			}
			if len(q.Preds) > 1 && prep.Order() == nil {
				t.Fatalf("trial %d: order never settled", trial)
			}
			if !slices.Equal(prep.Order(), plain.Order()) {
				t.Fatalf("trial %d: settled orders differ: %v vs %v", trial, prep.Order(), plain.Order())
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("degenerate corpus: %d hits, %d misses", hits, misses)
	}
}

// TestPreparedKeyNotSerialized: MarshalBinary ignores the prepared key,
// and decoding into a prepared record drops the old nonce's key.
func TestPreparedKeyNotSerialized(t *testing.T) {
	_, _, mds := kernelCorpus(t, 4, 1)
	prepared := PrepareKeys(mds)
	for i := range mds {
		a, _ := mds[i].MarshalBinary()
		b, _ := prepared[i].MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("record %d: prepared record marshals differently", i)
		}
	}
	reused := prepared[0]
	b, _ := mds[1].MarshalBinary()
	if err := reused.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if reused.key != nil {
		t.Fatal("UnmarshalBinary kept the previous record's prepared key")
	}
}
