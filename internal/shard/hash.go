package shard

// Shard assignment hash: inline FNV-1a over the fleet's connection index.
// hash/fnv would allocate a hash.Hash64 per call, so the loop is written
// out.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashUint64 returns the 64-bit FNV-1a hash of x's little-endian bytes —
// the index-keyed form the fleet uses so connection→shard assignment is
// independent of ephemeral port numbers.
//
//e2e:hotpath
func HashUint64(x uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}
