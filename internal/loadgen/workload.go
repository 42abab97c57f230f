package loadgen

import (
	"bytes"

	"e2ebatch/internal/resp"
)

// Request kinds reported through Result.ByKind.
const (
	KindSet = iota
	KindGet
	KindPing
)

// SetWorkload reproduces the paper's Figure 4a workload: every request is a
// SET of a valSize-byte value to a keySize-byte key ("a single client that
// sets 16 KiB values to 16 B keys"). Keys rotate over a small set so the
// store stays bounded — and so does the maker: the wire form of each key's
// SET is built once and handed out again, never modified.
func SetWorkload(keySize, valSize int) RequestMaker {
	sets, _ := wireForms(keySize, valSize)
	return func(i uint64) ([]byte, int) {
		return sets[i%uint64(len(sets))], KindSet
	}
}

// MixedWorkload reproduces Figure 4b: setPermille requests per thousand are
// SETs, the rest are GETs of previously set keys (whose responses are the
// full valSize bytes — the "large responses unharmed by batching" that break
// the byte-based estimate). The mix is deterministic so runs are exactly
// reproducible.
func MixedWorkload(keySize, valSize int, setPermille int) RequestMaker {
	if setPermille < 0 || setPermille > 1000 {
		panic("loadgen: setPermille out of range")
	}
	sets, gets := wireForms(keySize, valSize)
	return func(i uint64) ([]byte, int) {
		k := i % uint64(len(sets))
		// Spread the GETs evenly: request i is a GET when its
		// position within each block of 1000 falls in the GET share.
		if int(i%1000) >= setPermille {
			return gets[k], KindGet
		}
		return sets[k], KindSet
	}
}

// wireForms builds the immutable wire form of a SET (of valSize 'v' bytes)
// and a GET for each of the 16 keys the workloads rotate over.
func wireForms(keySize, valSize int) (sets, gets [][]byte) {
	val := bytes.Repeat([]byte{'v'}, valSize)
	for _, key := range makeKeys(keySize, 16) {
		sets = append(sets, resp.AppendCommand(nil, []byte("SET"), key, val))
		gets = append(gets, resp.AppendCommand(nil, []byte("GET"), key))
	}
	return sets, gets
}

// PingWorkload issues PINGs — the minimal fixed-size request/response pair,
// useful for microbenchmarks and examples.
func PingWorkload() RequestMaker {
	wire := resp.Command("PING")
	return func(i uint64) ([]byte, int) {
		return wire, KindPing
	}
}

// Keys returns the deterministic key set the workloads rotate over, so
// experiment harnesses can preload the store for GET hits.
func Keys(keySize, n int) [][]byte { return makeKeys(keySize, n) }

func makeKeys(keySize, n int) [][]byte {
	keys := make([][]byte, n)
	for k := range keys {
		key := make([]byte, keySize)
		for i := range key {
			key[i] = byte('a' + k)
		}
		keys[k] = key
	}
	return keys
}
