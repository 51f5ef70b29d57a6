package query

import (
	"fmt"
	"slices"
	"testing"
)

// refCache is the naive reference FuzzCacheAgainstModel replays against
// lruCache: a map, a recency slice (most recent first) and a
// direct-mapped fingerprint table.
type refCache struct {
	max     int
	items   map[cacheKey]cacheEntry
	recency []cacheKey
	door    []uint64
}

func newRefCache(max int) *refCache {
	r := &refCache{max: max, items: map[cacheKey]cacheEntry{}}
	if max > 0 {
		r.door = make([]uint64, max)
	}
	return r
}

func (r *refCache) touch(key cacheKey) {
	r.recency = slices.DeleteFunc(r.recency, func(k cacheKey) bool { return k == key })
	r.recency = slices.Insert(r.recency, 0, key)
}

func (r *refCache) get(key cacheKey, hash string) (Response, bool) {
	e, ok := r.items[key]
	if !ok || e.hash != hash {
		return Response{}, false
	}
	r.touch(key)
	return e.resp, true
}

func (r *refCache) put(key cacheKey, hash string, resp Response) (declined bool) {
	if r.max <= 0 {
		return false
	}
	if _, ok := r.items[key]; !ok {
		fp := key.fingerprint()
		if slot := fp % uint64(r.max); r.door[slot] != fp {
			r.door[slot] = fp
			return true
		}
	}
	r.items[key] = cacheEntry{key: key, hash: hash, resp: resp}
	r.touch(key)
	if len(r.recency) > r.max {
		delete(r.items, r.recency[r.max])
		r.recency = r.recency[:r.max]
	}
	return false
}

func (r *refCache) purgeExcept(keep string) int {
	before := len(r.recency)
	r.recency = slices.DeleteFunc(r.recency, func(k cacheKey) bool {
		if r.items[k].hash != keep {
			delete(r.items, k)
			return true
		}
		return false
	})
	return before - len(r.recency)
}

// FuzzCacheAgainstModel replays a byte-coded sequence of get, put and
// purge calls on a small lruCache and on refCache. The first byte picks
// the capacity (-1 to 4; 0 and below disable the cache); every later
// pair of bytes is one call: the low bits of the first pick the
// operation and the model hash, the second picks the key from 48.
// Both must agree on every result, a get must never answer under
// another hash, and the cache must never hold more than its capacity.
// Wired into make fuzz-smoke.
func FuzzCacheAgainstModel(f *testing.F) {
	// Capacity 2: admit keys 0 and 1, touch 0, admit 2 (evicting 1),
	// then ask for 0 again.
	f.Add([]byte{3, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 2, 1, 2, 0, 0, 0, 1})
	f.Add([]byte{3, 1, 0, 1, 0, 0, 0, 0x21, 5, 1, 5, 1, 5, 0x12, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{4, 1, 7, 1, 7, 0x11, 7, 0x11, 7, 0x12, 0, 0x10, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%6) - 1
		c, ref := newLRUCache(capacity), newRefCache(capacity)
		hashes := []string{"model-a", "model-b", "model-c"}
		for i := 1; i+1 < len(data); i += 2 {
			op, hash := data[i]%3, hashes[int(data[i]>>4)%len(hashes)]
			b := data[i+1]
			key := cacheKey{shard: int(b % 3), capBits: uint64(b/3%4) << 52, zBits: uint64(b/12%4) << 60}
			step := fmt.Sprintf("call %d (op %d, %s, %+v)", i/2, op, hash, key)
			switch op {
			case 0:
				got, gotOK := c.get(key, hash)
				want, wantOK := ref.get(key, hash)
				if gotOK != wantOK || got != want {
					t.Fatalf("%s: get = %+v, %v; reference %+v, %v", step, got, gotOK, want, wantOK)
				}
				if gotOK && got.ModelHash != hash {
					t.Fatalf("%s: get answered with an entry computed under %s", step, got.ModelHash)
				}
			case 1:
				resp := Response{ModelHash: hash, ModelSeq: uint64(i)}
				if got, want := c.put(key, hash, resp), ref.put(key, hash, resp); got != want {
					t.Fatalf("%s: put declined = %v; reference %v", step, got, want)
				}
			case 2:
				if got, want := c.purgeExcept(hash), ref.purgeExcept(hash); got != want {
					t.Fatalf("%s: purged %d; reference %d", step, got, want)
				}
			}
			if n := c.len(); n != len(ref.recency) || n > max(capacity, 0) {
				t.Fatalf("%s: len %d; reference %d, capacity %d", step, n, len(ref.recency), capacity)
			}
		}
	})
}
