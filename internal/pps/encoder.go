package pps

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Document is the plaintext description of one user file: the unit PPS
// encrypts and the distributed search matches (§5.5: filename/path,
// content keywords, and numeric attributes).
type Document struct {
	ID       uint64 // random identifier supplied by the user (§5.6.1)
	Path     string
	Size     int64
	Modified time.Time
	Keywords []string // content keywords in rank order, most important first
}

// Encoded is one encrypted metadata record as stored on servers. All
// attributes are embedded into a single Bloom filter with per-attribute
// word prefixes, the combined-dictionary encoding of §5.6.4, so the
// server cannot tell which attribute a query touches.
type Encoded struct {
	ID uint64
	BloomMetadata
}

// MarshalBinary encodes the record for the wire and the on-disk store.
func (e Encoded) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8+2+len(e.Nonce)+4+len(e.Filter))
	binary.BigEndian.PutUint64(buf, e.ID)
	off := 8
	binary.BigEndian.PutUint16(buf[off:], uint16(len(e.Nonce)))
	off += 2
	off += copy(buf[off:], e.Nonce)
	binary.BigEndian.PutUint32(buf[off:], uint32(len(e.Filter)))
	off += 4
	copy(buf[off:], e.Filter)
	return buf, nil
}

// UnmarshalBinary decodes a record produced by MarshalBinary.
func (e *Encoded) UnmarshalBinary(b []byte) error {
	if len(b) < 14 {
		return fmt.Errorf("pps: encoded record too short (%d bytes)", len(b))
	}
	e.key = nil // a reused decode target must not keep the old nonce's key
	e.ID = binary.BigEndian.Uint64(b)
	off := 8
	nl := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+nl+4 {
		return fmt.Errorf("pps: encoded record truncated in nonce")
	}
	e.Nonce = append([]byte(nil), b[off:off+nl]...)
	off += nl
	fl := int(binary.BigEndian.Uint32(b[off:]))
	off += 4
	if len(b) < off+fl {
		return fmt.Errorf("pps: encoded record truncated in filter")
	}
	e.Filter = append([]byte(nil), b[off:off+fl]...)
	return nil
}

// Encoder turns plaintext documents and queries into their encrypted
// forms. It owns the user's key material; servers never see it.
type Encoder struct {
	bloom      *Bloom
	sizePoints []float64
	datePoints []float64
	rankBkts   []int
	epoch      time.Time
}

// EncoderConfig tunes the combined encoding.
type EncoderConfig struct {
	MaxKeywords int       // per document (0 = 50, per §5.5)
	MaxPathDir  int       // path components indexed (0 = 22, per §5.5.2)
	SizePoints  []float64 // inequality reference points for file size
	DateDays    int       // date reference granularity in days (0 = 30)
	DateSpan    int       // number of date reference points (0 = 200, ≈16 years)
	RankBuckets []int     // rank buckets (nil = DefaultRankBuckets)
	Epoch       time.Time // date reference origin (zero = 2005-01-01)
	// Hashes and BitsPerWord override the Bloom filter parameters
	// (0 = the paper's 17 hashes at 25 bits/word, fp ≈ 1e-5). Tests and
	// large synthetic corpora may trade false-positive rate for
	// encryption speed.
	Hashes      int
	BitsPerWord int
}

// NewEncoder builds the encoder with the given key and config.
func NewEncoder(k MasterKey, cfg EncoderConfig) *Encoder {
	if cfg.MaxKeywords <= 0 {
		cfg.MaxKeywords = 50
	}
	if cfg.MaxPathDir <= 0 {
		cfg.MaxPathDir = 22
	}
	if cfg.SizePoints == nil {
		cfg.SizePoints = ExponentialPoints(1e12)
	}
	if cfg.DateDays <= 0 {
		cfg.DateDays = 30
	}
	if cfg.DateSpan <= 0 {
		cfg.DateSpan = 200
	}
	if cfg.RankBuckets == nil {
		cfg.RankBuckets = DefaultRankBuckets()
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	sort.Float64s(cfg.SizePoints)
	sort.Ints(cfg.RankBuckets)
	datePoints := make([]float64, cfg.DateSpan)
	for i := range datePoints {
		datePoints[i] = float64(i * cfg.DateDays)
	}
	// Word budget: keywords (plain + rank buckets) + path components +
	// one signature word per size and date reference point.
	words := cfg.MaxKeywords*(1+len(cfg.RankBuckets)) + cfg.MaxPathDir +
		len(cfg.SizePoints) + len(datePoints)
	bcfg := DefaultBloomConfig()
	bcfg.MaxWords = words
	if cfg.Hashes > 0 {
		bcfg.Hashes = cfg.Hashes
	}
	if cfg.BitsPerWord > 0 {
		bcfg.BitsPerWord = cfg.BitsPerWord
	}
	return &Encoder{
		bloom:      NewBloom(k, bcfg),
		sizePoints: cfg.SizePoints,
		datePoints: datePoints,
		rankBkts:   cfg.RankBuckets,
		epoch:      cfg.Epoch,
	}
}

// MetadataBytes returns the wire size of one encoded record.
func (e *Encoder) MetadataBytes() int { return 16 + (e.bloom.MBits()+7)/8 }

// QueryBytes returns the wire size of one encrypted predicate.
func (e *Encoder) QueryBytes() int { return e.bloom.QueryBytes() }

// ServerParams returns the public parameters a server needs to match
// queries (no key material): the filter size in bits.
func (e *Encoder) ServerParams() ServerParams { return ServerParams{MBits: e.bloom.MBits()} }

// EncryptDocument produces the combined encrypted metadata for a file.
func (e *Encoder) EncryptDocument(d Document) (Encoded, error) {
	var words []string
	// Content keywords with rank buckets (§5.5.4).
	for rank, kw := range d.Keywords {
		words = append(words, "kw="+kw)
		for _, b := range e.rankBkts {
			if rank < b {
				words = append(words, fmt.Sprintf("top%d=%s", b, kw))
			}
		}
	}
	// Path components (§5.5: all components of a path are searchable).
	for _, c := range strings.Split(d.Path, "/") {
		if c != "" {
			words = append(words, "path="+c)
		}
	}
	// Numeric signature for size (§5.5.3 inequality encoding).
	words = append(words, signatureWords("size", float64(d.Size), e.sizePoints)...)
	// Numeric signature for modification date, in days since epoch.
	days := d.Modified.Sub(e.epoch).Hours() / 24
	words = append(words, signatureWords("date", days, e.datePoints)...)

	md, err := e.bloom.EncryptMetadata(words)
	if err != nil {
		return Encoded{}, fmt.Errorf("pps: encrypting document %d: %w", d.ID, err)
	}
	return Encoded{ID: d.ID, BloomMetadata: md}, nil
}

func signatureWords(attr string, v float64, points []float64) []string {
	words := make([]string, 0, len(points))
	for _, p := range points {
		switch {
		case v > p:
			words = append(words, fmt.Sprintf("%s>%g", attr, p))
		case v < p:
			words = append(words, fmt.Sprintf("%s<%g", attr, p))
		}
	}
	return words
}

// Predicate is one plaintext search condition.
type Predicate struct {
	Kind  PredKind
	Word  string  // for Keyword / Path
	Rank  int     // for KeywordRanked: the top-K bucket
	Value float64 // for numeric kinds
}

// PredKind enumerates the supported predicate types.
type PredKind int

// Supported predicate kinds.
const (
	Keyword       PredKind = iota // content keyword match
	KeywordRanked                 // keyword within top-K ranked features
	PathComponent                 // path component match
	SizeGreater                   // file size > Value
	SizeLess                      // file size < Value
	DateAfter                     // modified after epoch+Value days
	DateBefore                    // modified before epoch+Value days
)

// EncryptPredicate compiles one predicate to a trapdoor.
func (e *Encoder) EncryptPredicate(p Predicate) (BloomQuery, error) {
	switch p.Kind {
	case Keyword:
		return e.bloom.EncryptQuery("kw=" + p.Word), nil
	case KeywordRanked:
		for _, b := range e.rankBkts {
			if b == p.Rank {
				return e.bloom.EncryptQuery(fmt.Sprintf("top%d=%s", b, p.Word)), nil
			}
		}
		return BloomQuery{}, fmt.Errorf("pps: rank bucket %d not configured", p.Rank)
	case PathComponent:
		return e.bloom.EncryptQuery("path=" + p.Word), nil
	case SizeGreater:
		return e.bloom.EncryptQuery(fmt.Sprintf("size>%g", nearestPoint(e.sizePoints, p.Value))), nil
	case SizeLess:
		return e.bloom.EncryptQuery(fmt.Sprintf("size<%g", nearestPoint(e.sizePoints, p.Value))), nil
	case DateAfter:
		return e.bloom.EncryptQuery(fmt.Sprintf("date>%g", nearestPoint(e.datePoints, p.Value))), nil
	case DateBefore:
		return e.bloom.EncryptQuery(fmt.Sprintf("date<%g", nearestPoint(e.datePoints, p.Value))), nil
	default:
		return BloomQuery{}, fmt.Errorf("pps: unknown predicate kind %d", p.Kind)
	}
}

func nearestPoint(points []float64, v float64) float64 {
	i := sort.SearchFloat64s(points, v)
	if i == 0 {
		return points[0]
	}
	if i == len(points) {
		return points[len(points)-1]
	}
	if v-points[i-1] <= points[i]-v {
		return points[i-1]
	}
	return points[i]
}

// BoolOp combines predicates in a multi-predicate query (§5.6.5).
type BoolOp int

// Query combinators.
const (
	And BoolOp = iota
	Or
)

// Query is an encrypted multi-predicate query as shipped to servers.
type Query struct {
	Preds []BloomQuery
	Op    BoolOp
}

// EncryptQuery compiles a conjunction/disjunction of predicates.
func (e *Encoder) EncryptQuery(op BoolOp, preds ...Predicate) (Query, error) {
	q := Query{Op: op, Preds: make([]BloomQuery, 0, len(preds))}
	for _, p := range preds {
		bq, err := e.EncryptPredicate(p)
		if err != nil {
			return Query{}, err
		}
		q.Preds = append(q.Preds, bq)
	}
	return q, nil
}
