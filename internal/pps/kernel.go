package pps

// The zero-allocation PRF kernel. The matching hot path evaluates
// HMAC-SHA-256 once per (trapdoor element, record) pair; with the
// paper's parameters that is r = 17 evaluations per predicate per
// record, millions per sub-query. The generic path (crypto/hmac) runs
// the full key schedule and allocates two digest states plus a result
// slice on every evaluation, so per-node matching throughput — the term
// that §2 and Badue et al. show directly bounds cluster capacity — is
// dominated by allocator and key-schedule overhead rather than hashing.
//
// prfKernel removes both costs:
//
//   - The two SHA-256 states are allocated once per kernel and Reset
//     between evaluations; digests land in a fixed scratch buffer.
//   - Re-keying (per record: the nonce) only re-derives the ipad/opad
//     blocks — no allocation.
//   - Where the hash implementation supports binary state save/restore
//     (encoding.BinaryAppender/BinaryUnmarshaler, true for crypto/sha256
//     since Go 1.24), the kernel checkpoints the state *after* absorbing
//     the pad block and restores it per evaluation, halving the SHA-256
//     compressions for short inputs (2 instead of 4).
//   - A record's nonce never changes once stored, so a serving node
//     derives each record's key schedule once, at Put (PrepareKeys),
//     and matching loads it with loadKey — a 64-byte copy — instead of
//     re-keying with setKey on every query. Records without a prepared
//     key (frontend, coordinator and WAL copies, the MatchOne and
//     MatchFile paths) are re-keyed per record exactly as before.
//
// A kernel is NOT safe for concurrent use; embed one per Run (matching)
// or per pooled encode state (EncryptMetadata).

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

const prfBlockSize = sha256.BlockSize // 64

// The marshalled crypto/sha256 state is a 4-byte magic, the eight
// 32-bit chaining words, the 64-byte block buffer and the 8-byte
// message length. Just after a whole pad block the buffer is empty and
// the length is 64, so two post-pad states differ only in the chaining
// words at [shaChainOff, shaChainOff+sha256.Size). nonceKeysWork checks
// this layout once at run time.
const (
	shaChainOff = 4
	shaStateLen = shaChainOff + sha256.Size + prfBlockSize + 8
)

// prfKernel is a reusable HMAC-SHA-256 evaluator for one key at a time.
// The zero value is not usable; call init (or reset via setKey) first.
type prfKernel struct {
	inner, outer hash.Hash
	ipad, opad   [prfBlockSize]byte
	sum          [sha256.Size]byte // digest scratch

	// Midstate checkpoints: inner/outer state just after the pad block,
	// so per-evaluation work skips re-absorbing 64 pad bytes. Nil when
	// the hash does not support state save/restore.
	innerSaved, outerSaved []byte
	canSave                bool
	keyed                  bool

	// loadedNonce is the key of the last loadKey, whose ipad/opad were
	// not derived; the pad-replay fallback re-derives them from it.
	loadedNonce []byte
	padsStale   bool
}

func (k *prfKernel) init() {
	k.inner = sha256.New()
	k.outer = sha256.New()
	_, okA := k.inner.(encoding.BinaryAppender)
	_, okU := k.inner.(encoding.BinaryUnmarshaler)
	k.canSave = okA && okU
	if k.canSave {
		k.innerSaved = make([]byte, 0, 128)
		k.outerSaved = make([]byte, 0, 128)
	}
}

// setKey re-keys the kernel. Keys longer than the block size are hashed
// first, per RFC 2104 (none of our callers hit that: nonces are 16
// bytes, derived sub-keys 32).
func (k *prfKernel) setKey(key []byte) {
	if k.inner == nil {
		k.init()
	}
	if len(key) > prfBlockSize {
		k.inner.Reset()
		k.inner.Write(key)
		key = k.inner.Sum(k.sum[:0])
	}
	for i := range k.ipad {
		k.ipad[i] = 0x36
		k.opad[i] = 0x5c
	}
	for i, b := range key {
		k.ipad[i] ^= b
		k.opad[i] ^= b
	}
	if k.canSave {
		k.inner.Reset()
		k.inner.Write(k.ipad[:])
		k.innerSaved = k.saveState(k.inner, k.innerSaved)
		k.outer.Reset()
		k.outer.Write(k.opad[:])
		k.outerSaved = k.saveState(k.outer, k.outerSaved)
	}
	k.keyed = true
	k.padsStale = false
}

// loadKey keys the kernel for nonce from its prepared schedule nk by
// patching the chaining words of the post-pad checkpoints. It needs a
// checkpoint template from an earlier setKey and reports false (kernel
// untouched) without one or when checkpointing is off; the caller then
// re-keys with setKey.
func (k *prfKernel) loadKey(nk *NonceKey, nonce []byte) bool {
	if !k.hasPadStates() {
		return false
	}
	copy(k.innerSaved[shaChainOff:], nk.inner[:])
	copy(k.outerSaved[shaChainOff:], nk.outer[:])
	k.loadedNonce = nonce
	k.padsStale = true
	return true
}

// NonceKey is a record's precomputed HMAC-SHA-256 key schedule: the
// SHA-256 chaining values after absorbing ipad⊕nonce and opad⊕nonce.
// It is derived only from the public nonce, is never serialized, and
// is immutable once built.
type NonceKey struct {
	inner, outer [sha256.Size]byte
}

// fillNonceKey keys the kernel with nonce and copies the chaining words
// of its post-pad checkpoints into nk. It reports false when the
// checkpoints do not have the layout loadKey patches.
func (k *prfKernel) fillNonceKey(nk *NonceKey, nonce []byte) bool {
	k.setKey(nonce)
	if !k.hasPadStates() {
		return false
	}
	copy(nk.inner[:], k.innerSaved[shaChainOff:])
	copy(nk.outer[:], k.outerSaved[shaChainOff:])
	return true
}

// hasPadStates reports whether the kernel holds post-pad checkpoints of
// the marshalled size loadKey patches.
func (k *prfKernel) hasPadStates() bool {
	return k.canSave && len(k.innerSaved) == shaStateLen && len(k.outerSaved) == shaStateLen
}

// nonceKeysWork checks once that a patched checkpoint evaluates to the
// reference HMAC, so a change in the linked SHA-256's state encoding
// disables prepared keys instead of corrupting matches.
var nonceKeysWork = sync.OnceValue(func() bool {
	var k prfKernel
	k.init()
	var nk NonceKey
	a, b := []byte("nonce-key-probe-a"), []byte("nonce-key-probe-b")
	if !k.fillNonceKey(&nk, a) {
		return false
	}
	k.setKey(b)
	data := []byte("nonce-key-probe-data")
	var out [sha256.Size]byte
	return k.loadKey(&nk, a) && bytes.Equal(k.sumInto(data, out[:0]), prf(a, data)) && k.canSave
})

// PrepareKeys returns a copy of recs in which every record carries its
// precomputed key schedule, so Run.Match loads it instead of re-keying.
// recs itself is left untouched. When prepared keys are unavailable it
// returns recs unchanged; matching then re-keys per record.
func PrepareKeys(recs []Encoded) []Encoded {
	if len(recs) == 0 || !nonceKeysWork() {
		return recs
	}
	out := make([]Encoded, len(recs))
	var k prfKernel
	k.init()
	for i := range recs {
		nk := new(NonceKey)
		if !k.fillNonceKey(nk, recs[i].Nonce) {
			nk = nil
		}
		out[i] = recs[i]
		out[i].key = nk
	}
	return out
}

// saveState checkpoints h into buf (reusing its capacity). A marshal
// failure demotes the kernel to the pad-replay path for its lifetime.
func (k *prfKernel) saveState(h hash.Hash, buf []byte) []byte {
	out, err := h.(encoding.BinaryAppender).AppendBinary(buf[:0])
	if err != nil {
		k.canSave = false
		return buf
	}
	return out
}

// sumInto computes HMAC(key, data) into out (which must have capacity
// sha256.Size and length 0, typically scratch[:0]) and returns the full
// 32-byte digest. Identical output to prf() in prf.go.
func (k *prfKernel) sumInto(data []byte, out []byte) []byte {
	if k.canSave {
		// Restore the post-pad midstates instead of re-hashing the pads.
		if err := k.inner.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.innerSaved); err == nil {
			k.inner.Write(data)
			d := k.inner.Sum(k.sum[:0])
			if err := k.outer.(encoding.BinaryUnmarshaler).UnmarshalBinary(k.outerSaved); err == nil {
				k.outer.Write(d)
				return k.outer.Sum(out)
			}
		}
		// Restore failed (foreign hash implementation): fall through to
		// the replay path and stop checkpointing.
		k.canSave = false
	}
	if k.padsStale {
		k.setKey(k.loadedNonce)
	}
	k.inner.Reset()
	k.inner.Write(k.ipad[:])
	k.inner.Write(data)
	d := k.inner.Sum(k.sum[:0])
	k.outer.Reset()
	k.outer.Write(k.opad[:])
	k.outer.Write(d)
	return k.outer.Sum(out)
}

// sum64 is sumInto truncated to the leading 8 bytes as a big-endian
// uint64 — the bit-position derivation used by matching (prfUint64's
// zero-allocation twin).
func (k *prfKernel) sum64(data []byte) uint64 {
	d := k.sumInto(data, k.sum[:0])
	return binary.BigEndian.Uint64(d)
}
