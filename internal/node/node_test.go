package node

import (
	"context"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/store"
	"roar/internal/wire"
)

func testSetup(t *testing.T) (*Node, *pps.Encoder) {
	t.Helper()
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 4, MaxPathDir: 2,
		SizePoints: pps.LinearPoints(0, 100, 4), DateDays: 365, DateSpan: 4,
		RankBuckets: []int{1},
	})
	n, err := New(Config{Params: enc.ServerParams(), MatchThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return n, enc
}

func loadDocs(t *testing.T, n *Node, enc *pps.Encoder, words []string) []uint64 {
	t.Helper()
	ids := make([]uint64, len(words))
	for i, w := range words {
		id := uint64(i+1) << 32
		doc := pps.Document{ID: id, Path: "/x", Size: 10,
			Modified: time.Unix(1.2e9, 0), Keywords: []string{w}}
		rec, err := enc.EncryptDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		n.Put(proto.PutReq{Records: []pps.Encoded{rec}})
		ids[i] = id
	}
	return ids
}

func TestNodeQueryLocal(t *testing.T) {
	n, enc := testSetup(t)
	ids := loadDocs(t, n, enc, []string{"aa", "bb", "aa", "cc"})
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.4999999, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 {
		t.Fatalf("matched %d, want 2", len(resp.IDs))
	}
	want := map[uint64]bool{ids[0]: true, ids[2]: true}
	for _, id := range resp.IDs {
		if !want[id] {
			t.Fatalf("unexpected match %d", id)
		}
	}
	if resp.Scanned != 4 || resp.MatchNanos <= 0 {
		t.Errorf("Scanned=%d MatchNanos=%d", resp.Scanned, resp.MatchNanos)
	}
	st := n.Stats()
	if st.Queries != 1 || st.Objects != 4 || st.Scanned != 4 {
		t.Errorf("stats: %+v", st)
	}
}

func TestNodeQueryPartialArc(t *testing.T) {
	n, enc := testSetup(t)
	loadDocs(t, n, enc, []string{"aa", "aa", "aa", "aa"})
	// ids are (i+1)<<32, i.e. points ~ (i+1)*2^-32 — all very near 0.
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	resp, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.6, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 0 || resp.Scanned != 0 {
		t.Errorf("arc away from objects matched %d/%d", len(resp.IDs), resp.Scanned)
	}
}

func TestNodeRetain(t *testing.T) {
	n, enc := testSetup(t)
	loadDocs(t, n, enc, []string{"aa", "bb"})
	// Objects sit just above 0; a range at 0 with p=4 keeps them.
	resp := n.Retain(proto.RetainReq{Start: 0, Length: 0.25, P: 4})
	if resp.Dropped != 0 || resp.Remaining != 2 {
		t.Errorf("retain kept wrong set: %+v", resp)
	}
	// A range far away drops them.
	resp = n.Retain(proto.RetainReq{Start: 0.5, Length: 0.1, P: 4})
	if resp.Dropped != 2 || resp.Remaining != 0 {
		t.Errorf("retain should drop both: %+v", resp)
	}
}

func TestNodeDelete(t *testing.T) {
	n, enc := testSetup(t)
	ids := loadDocs(t, n, enc, []string{"aa", "bb"})
	n.Delete(proto.DeleteReq{IDs: []uint64{ids[0]}})
	if n.Store().Len() != 1 {
		t.Errorf("Len = %d after delete", n.Store().Len())
	}
}

func TestNodeThrottle(t *testing.T) {
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 365, DateSpan: 2,
		RankBuckets: []int{1},
	})
	n, err := New(Config{Params: enc.ServerParams(), ObjectsPerSec: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var recs []pps.Encoded
	for i := 0; i < 100; i++ {
		r, err := enc.EncryptDocument(pps.Document{ID: uint64(i+1) << 40, Path: "/x",
			Size: 1, Modified: time.Unix(1.2e9, 0), Keywords: []string{"w"}})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	n.Put(proto.PutReq{Records: recs})
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "w"})
	start := time.Now()
	if _, err := n.Query(context.Background(), proto.QueryReq{Lo: 0.5, Hi: 0.49999, Q: q}); err != nil {
		t.Fatal(err)
	}
	// 100 objects at 1000 obj/s = 100ms.
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Errorf("throttled query took %v, want >= ~100ms", el)
	}
}

// TestQueryFixedCostHonoursCancel: a cancelled (hedged-away) sub-query
// stops waiting out FixedQueryCost at once and counts as canceled.
func TestQueryFixedCostHonoursCancel(t *testing.T) {
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 2, MaxPathDir: 1,
		SizePoints: pps.LinearPoints(0, 100, 2), DateDays: 365, DateSpan: 2,
		RankBuckets: []int{1},
	})
	n, err := New(Config{Params: enc.ServerParams(), FixedQueryCost: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "w"})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err = n.Query(ctx, proto.QueryReq{Lo: 0.5, Hi: 0.5, Q: q})
	if err != context.Canceled {
		t.Fatalf("cancelled query returned %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("cancelled query held the node for %v", el)
	}
	if st := n.Stats(); st.Canceled != 1 || st.Queries != 0 {
		t.Fatalf("stats after cancel: canceled=%d queries=%d, want 1 and 0", st.Canceled, st.Queries)
	}
}

func TestNodeServeRPC(t *testing.T) {
	n, enc := testSetup(t)
	srv, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := wire.NewClient(srv.Addr())
	defer cl.Close()

	if err := cl.Call(context.Background(), proto.MNodePing, nil, nil); err != nil {
		t.Fatal(err)
	}
	rec, err := enc.EncryptDocument(pps.Document{ID: 1 << 40, Path: "/x", Size: 5,
		Modified: time.Unix(1.2e9, 0), Keywords: []string{"net"}})
	if err != nil {
		t.Fatal(err)
	}
	var put proto.PutResp
	if err := cl.Call(context.Background(), proto.MNodePut, proto.PutReq{Records: []pps.Encoded{rec}}, &put); err != nil {
		t.Fatal(err)
	}
	if put.Stored != 1 || put.Total != 1 {
		t.Errorf("put = %+v", put)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "net"})
	var resp proto.QueryResp
	if err := cl.Call(context.Background(), proto.MNodeQuery,
		proto.QueryReq{Lo: 0.5, Hi: 0.49999, Q: q}, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 1 || resp.IDs[0] != 1<<40 {
		t.Errorf("query over RPC = %+v", resp)
	}
	var st proto.StatsResp
	if err := cl.Call(context.Background(), proto.MNodeStats, nil, &st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != 1 {
		t.Errorf("stats over RPC: %+v", st)
	}
	// Malformed body surfaces an error, not a hang.
	if err := cl.Call(context.Background(), proto.MNodeQuery, "not an object", nil); err == nil {
		t.Error("malformed request should error")
	}
}

// TestNodeMixedCodecClients: a legacy JSON-framed client and a
// binary-negotiating client read the same node state and get identical
// answers — the mixed-version cluster guarantee at the node boundary.
func TestNodeMixedCodecClients(t *testing.T) {
	n, enc := testSetup(t)
	srv, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	binCl := wire.NewClient(srv.Addr())
	defer binCl.Close()
	jsonCl := wire.NewClientWithConfig(srv.Addr(), wire.ClientConfig{DisableBinary: true})
	defer jsonCl.Close()

	var recs []pps.Encoded
	for i := 0; i < 20; i++ {
		r, err := enc.EncryptDocument(pps.Document{ID: uint64(i+1) << 40, Path: "/m",
			Size: 9, Modified: time.Unix(1.2e9, 0), Keywords: []string{"mixed"}})
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	// Write through the old-framing client, read through both.
	var put proto.PutResp
	if err := jsonCl.Call(context.Background(), proto.MNodePut, proto.PutReq{Records: recs}, &put); err != nil {
		t.Fatal(err)
	}
	if put.Stored != 20 {
		t.Fatalf("json-framed put = %+v", put)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "mixed"})
	req := proto.QueryReq{Lo: 0.5, Hi: 0.49999, Q: q}
	var fromBin, fromJSON proto.QueryResp
	if err := binCl.Call(context.Background(), proto.MNodeQuery, req, &fromBin); err != nil {
		t.Fatal(err)
	}
	if err := jsonCl.Call(context.Background(), proto.MNodeQuery, req, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if len(fromBin.IDs) != 20 || len(fromJSON.IDs) != 20 {
		t.Fatalf("codec-dependent results: binary %d ids, json %d ids", len(fromBin.IDs), len(fromJSON.IDs))
	}
	for i := range fromBin.IDs {
		if fromBin.IDs[i] != fromJSON.IDs[i] {
			t.Fatalf("id %d differs across codecs: %d != %d", i, fromBin.IDs[i], fromJSON.IDs[i])
		}
	}
	var pr proto.PingResp
	if err := binCl.Call(context.Background(), proto.MNodePing, proto.PingReq{}, &pr); err != nil {
		t.Fatal(err)
	}
}

func TestNodeRejectsBadParams(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero MBits should be rejected")
	}
}

func TestPointConsistencyWithStore(t *testing.T) {
	// The node's arc filtering and the store's point mapping must agree.
	if store.PointOf(0) != 0 {
		t.Error("PointOf(0) != 0")
	}
}
