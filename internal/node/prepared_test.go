// Prepared-key tests: records entering through Node.Put carry their
// precomputed HMAC key schedules, which must never change an answer,
// outlive a replaced record, or leak into the caller's records.
package node

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
	"roar/internal/store"
)

// randomCorpus encrypts n documents with random ids spread over the
// ring, each holding a few words of a small vocabulary.
func randomCorpus(t *testing.T, enc *pps.Encoder, rng *rand.Rand, n int) []pps.Encoded {
	t.Helper()
	recs := make([]pps.Encoded, n)
	for i := range recs {
		kws := []string{fmt.Sprintf("v%d", rng.Intn(3)), fmt.Sprintf("v%d", 3+rng.Intn(5))}
		rec, err := enc.EncryptDocument(pps.Document{
			ID: rng.Uint64(), Path: "/p", Size: 9,
			Modified: time.Unix(1.2e9, 0), Keywords: kws,
		})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// TestPutPreparedMatchesMatchAll: a node scan over records stored via
// Put returns exactly what pps.Matcher.MatchAll finds over the raw
// records, for random AND/OR mixes over the full ring and a wrapping
// arc, with the per-thread predicate order settling mid-scan.
func TestPutPreparedMatchesMatchAll(t *testing.T) {
	n, enc := testSetup(t)
	rng := rand.New(rand.NewSource(23))
	raw := randomCorpus(t, enc, rng, 4*pps.SelectivitySamples)
	if _, err := n.Put(proto.PutReq{Records: raw}); err != nil {
		t.Fatal(err)
	}
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	// The full ring (lo == hi) and the wrapping arc (0.7, 0.3].
	arcs := [][2]float64{{0.25, 0.25}, {0.7, 0.3}}
	for trial := 0; trial < 12; trial++ {
		var preds []pps.Predicate
		for k := 1 + rng.Intn(3); k > 0; k-- {
			preds = append(preds, pps.Predicate{Kind: pps.Keyword, Word: fmt.Sprintf("v%d", rng.Intn(8))})
		}
		q, err := enc.EncryptQuery(pps.BoolOp(rng.Intn(2)), preds...)
		if err != nil {
			t.Fatal(err)
		}
		all := m.MatchAll(q, raw)
		for _, a := range arcs {
			lo, hi := ring.Point(a[0]), ring.Point(a[1])
			var want []uint64
			for _, id := range all {
				if p := store.PointOf(id); ring.MatchSpan(lo, hi) >= 1 || (p > lo || p <= hi) {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			resp, err := n.Query(context.Background(), proto.QueryReq{Lo: a[0], Hi: a[1], Q: q})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(resp.IDs, want) {
				t.Fatalf("trial %d arc %v: node found %d ids, MatchAll %d", trial, a, len(resp.IDs), len(want))
			}
		}
	}
}

// TestPutReplacementUsesNewKey: re-putting an id with a new nonce
// replaces the prepared key with the new record's, never keeping the
// stale one, on both the single-record and the batch insert path.
func TestPutReplacementUsesNewKey(t *testing.T) {
	n, enc := testSetup(t)
	doc := pps.Document{ID: 7 << 40, Path: "/r", Size: 9, Modified: time.Unix(1.2e9, 0)}
	filler, err := enc.EncryptDocument(pps.Document{ID: 9 << 40, Path: "/r", Size: 9,
		Modified: time.Unix(1.2e9, 0), Keywords: []string{"filler"}})
	if err != nil {
		t.Fatal(err)
	}
	query := func(word string) int {
		t.Helper()
		q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: word})
		resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.5, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		return len(resp.IDs)
	}
	words := []string{"alpha", "beta", "gamma", "delta"}
	for i, w := range words {
		doc.Keywords = []string{w}
		rec, err := enc.EncryptDocument(doc) // a fresh random nonce each time
		if err != nil {
			t.Fatal(err)
		}
		batch := []pps.Encoded{rec}
		if i%2 == 1 {
			batch = append(batch, filler)
		}
		if _, err := n.Put(proto.PutReq{Records: batch}); err != nil {
			t.Fatal(err)
		}
		if l := n.Store().Len(); l > 2 {
			t.Fatalf("re-put grew the store to %d records", l)
		}
		for j, other := range words {
			want := 0
			if i == j {
				want = 1
			}
			if got := query(other); got != want {
				t.Fatalf("after put %d (%s): query %q matched %d, want %d", i, w, other, got, want)
			}
		}
	}
}

// TestPutLeavesCallerRecords: Put prepares its own copy of the batch;
// the caller's slice and records are unchanged.
func TestPutLeavesCallerRecords(t *testing.T) {
	n, enc := testSetup(t)
	recs := randomCorpus(t, enc, rand.New(rand.NewSource(29)), 16)
	before := append([]pps.Encoded(nil), recs...)
	if _, err := n.Put(proto.PutReq{Records: recs}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, before) {
		t.Fatal("Put modified the caller's records")
	}
	stored, _ := n.Store().Get(recs[0].ID)
	if reflect.DeepEqual(stored, recs[0]) {
		t.Fatal("stored record carries no prepared key; the check above would be vacuous")
	}
}
