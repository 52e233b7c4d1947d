package window

// Group identity as an integer. A Directory gives the group keys of one key
// class — the queries whose group-by items compile to the same programs, so
// one evaluation keys them all — dense ids, and each member's Manager indexes
// its open windows' groups by those ids: a hit is one directory probe for the
// class, then one slice index per member per containing window, where it was
// a string-keyed map probe per member per window. The ids are a runtime
// cache and nothing more: a window's key-string table stays the source of
// truth for first touch, for the key-ordered close and for the checkpoint
// codec, so a directory may be reset at any point between events — its epoch
// moves, every manager drops the index it built against the old one and
// rebuilds it from the key table as hits arrive — and no id ever reaches the
// wire.

import "math/bits"

// HashKey is the 32-bit FNV-1a hash of a group key: the ownership hash the
// runtime routes a key by, and the hash a Directory probes with, so a key the
// router hashed is never hashed again.
func HashKey(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Directory maps group keys to dense ids: an open-addressed table of (hash,
// id) words probed with the key's HashKey, the key compared only to confirm a
// hash match. The zero value is an empty directory.
type Directory struct {
	// table holds hash<<32 | id+1 per occupied cell, 0 in an empty one; its
	// length is a power of two at most half full.
	table []uint64
	shift uint8    // 32 - log2(len(table)): the cell index is the top bits of the mixed hash
	keys  []string // id -> key
	epoch uint32   // moves on every Reset: ids of an older epoch mean nothing
}

// minDirectoryCells is a directory's initial table size.
const minDirectoryCells = 16

// Resolve returns key's id, assigning the next one at first sight. hash must
// be HashKey(key).
//
//saql:hotpath
func (d *Directory) Resolve(hash uint32, key string) int32 {
	if 2*(len(d.keys)+1) > len(d.table) {
		d.grow()
	}
	mask := uint32(len(d.table) - 1)
	// Ownership routing sends a shard only the keys whose hash is its index
	// modulo the shard count, so the low bits are anything but uniform there:
	// the cell comes from the top bits of a multiplicative mix.
	for i := (hash * 0x9E3779B9) >> d.shift; ; i = (i + 1) & mask {
		e := d.table[i]
		if e == 0 {
			id := int32(len(d.keys))
			d.keys = append(d.keys, key)
			d.table[i] = uint64(hash)<<32 | uint64(id+1)
			return id
		}
		if uint32(e>>32) == hash {
			if id := int32(uint32(e)) - 1; d.keys[id] == key {
				return id
			}
		}
	}
}

// grow doubles the table, re-placing every entry by the hash it stored.
func (d *Directory) grow() {
	n := max(2*len(d.table), minDirectoryCells)
	old := d.table
	d.table = make([]uint64, n)
	d.shift = uint8(32 - bits.TrailingZeros(uint(n))) // n is a power of two
	mask := uint32(n - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := (uint32(e>>32) * 0x9E3779B9) >> d.shift
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = e
	}
}

// Len reports how many keys hold ids.
func (d *Directory) Len() int { return len(d.keys) }

// Epoch identifies the directory's current id assignment.
func (d *Directory) Epoch() uint32 { return d.epoch }

// Reset forgets every key and moves the epoch: the managers indexed against
// the directory rebuild their indexes from their key tables. Call it between
// events only — an id resolved before a Reset must not be folded after it.
func (d *Directory) Reset() {
	clear(d.keys)
	d.keys = d.keys[:0]
	d.table, d.shift = nil, 0
	d.epoch++
}
