package query

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// refCache is the naive reference FuzzCacheAgainstModel replays against
// clockCache: a key ring in slot order, a reference-bit map, an
// eviction hand and a direct-mapped fingerprint table.
type refCache struct {
	max   int
	items map[cacheKey]refEntry
	keys  []cacheKey
	ref   map[cacheKey]bool
	hand  int
	door  []uint64
}

type refEntry struct {
	hash string
	resp Response
}

func newRefCache(max int) *refCache {
	r := &refCache{max: max, items: map[cacheKey]refEntry{}, ref: map[cacheKey]bool{}}
	if max > 0 {
		r.door = make([]uint64, max)
	}
	return r
}

func (r *refCache) get(key cacheKey, hash string) (Response, bool) {
	e, ok := r.items[key]
	if !ok || e.hash != hash {
		return Response{}, false
	}
	r.ref[key] = true
	return e.resp, true
}

func (r *refCache) put(key cacheKey, hash string, resp Response) (declined bool) {
	if r.max <= 0 {
		return false
	}
	if _, ok := r.items[key]; ok {
		r.ref[key] = true
	} else {
		fp := key.fingerprint()
		if slot := fp % uint64(r.max); r.door[slot] != fp {
			r.door[slot] = fp
			return true
		}
		r.insert(key)
	}
	r.items[key] = refEntry{hash: hash, resp: resp}
	return false
}

// insert places a new key in the ring with its reference bit clear,
// sweeping the hand for a victim when the ring is full.
func (r *refCache) insert(key cacheKey) {
	r.ref[key] = false
	if len(r.keys) < r.max {
		r.keys = append(r.keys, key)
		return
	}
	for ; r.ref[r.keys[r.hand]]; r.hand = (r.hand + 1) % len(r.keys) {
		r.ref[r.keys[r.hand]] = false
	}
	delete(r.items, r.keys[r.hand])
	delete(r.ref, r.keys[r.hand])
	r.keys[r.hand] = key
	r.hand = (r.hand + 1) % len(r.keys)
}

func (r *refCache) purgeExcept(keep string) int {
	before := len(r.keys)
	r.keys = slices.DeleteFunc(r.keys, func(k cacheKey) bool {
		if r.items[k].hash != keep {
			delete(r.items, k)
			delete(r.ref, k)
			return true
		}
		return false
	})
	r.hand = 0
	return before - len(r.keys)
}

// FuzzCacheAgainstModel replays a byte-coded sequence of get, put and
// purge calls on a small clockCache and on refCache. The first byte
// picks the capacity (-1 to 4; 0 and below disable the cache); every
// later pair of bytes is one call: the first picks the operation (mod
// 3) and the model hash (high nibble), the second picks the key from
// 48. A put passes the key's true residency as its hint, or, when bit
// 3 of the first byte is set, claims residency regardless, as a caller
// whose key was evicted since its get would.
// Both must agree on every result, a get must never answer under
// another hash, and the cache must never hold more than its capacity.
// Wired into make fuzz-smoke.
func FuzzCacheAgainstModel(f *testing.F) {
	// Capacity 2: admit keys 0 and 1, hit 0, admit 2 (the hand spares
	// 0 and evicts 1), then ask for 0 and 1 again.
	f.Add([]byte{3, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 2, 1, 2, 0, 0, 0, 1})
	f.Add([]byte{3, 1, 0, 1, 0, 0, 0, 0x21, 5, 1, 5, 1, 5, 0x12, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{0, 1, 0, 1, 0, 0, 0})
	f.Add([]byte{4, 1, 7, 1, 7, 0x11, 7, 0x11, 7, 0x12, 0, 0x10, 7})
	// Capacity 3: admit 0, 1, 2, hit 0, admit 3 (evicting 1), hit 0
	// again after the hand has passed it, admit 4 (evicting 2) and 5
	// (the hand spares 0 once more and evicts 3), then ask for 0 and 3.
	f.Add([]byte{4, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 0, 0, 1, 3, 1, 3, 0, 0, 1, 4, 1, 4, 1, 5, 1, 5, 0, 0, 0, 3})
	// Capacity 3: admit 0, 1, 2, then 3 (evicting 0, the hand moves
	// on to 1); recompute 2 under model-b and purge it, which compacts
	// the ring to [3, 1] and restarts the hand at 3; admit 4, then 5
	// (evicting 3, not 1), and ask for 3 and 1.
	f.Add([]byte{4, 1, 0, 1, 0, 1, 1, 1, 1, 1, 2, 1, 2, 1, 3, 1, 3, 0x10, 2, 2, 0, 1, 4, 1, 4, 1, 5, 1, 5, 0, 3, 0, 1})
	// Capacity 1: a put claiming residency for a key that is absent
	// goes through the doorkeeper like any first miss.
	f.Add([]byte{2, 10, 0, 10, 0, 0, 0, 10, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0]%6) - 1
		c, ref := newClockCache(capacity), newRefCache(capacity)
		hashes := []string{"model-a", "model-b", "model-c"}
		for i := 1; i+1 < len(data); i += 2 {
			op, hash := data[i]%3, hashes[int(data[i]>>4)%len(hashes)]
			b := data[i+1]
			key := cacheKey{shard: int(b % 3), capBits: uint64(b/3%4) << 52, zBits: uint64(b/12%4) << 60}
			step := fmt.Sprintf("call %d (op %d, %s, %+v)", i/2, op, hash, key)
			switch op {
			case 0:
				e, in := ref.items[key]
				wantStale := in && e.hash != hash
				got, gotOK, gotStale := c.get(key, hash)
				want, wantOK := ref.get(key, hash)
				if gotOK != wantOK || got != want || gotStale != wantStale {
					t.Fatalf("%s: get = %+v, %v, stale %v; reference %+v, %v, stale %v",
						step, got, gotOK, gotStale, want, wantOK, wantStale)
				}
				if gotOK && got.ModelHash != hash {
					t.Fatalf("%s: get answered with an entry computed under %s", step, got.ModelHash)
				}
			case 1:
				resp := Response{ModelHash: hash, ModelSeq: uint64(i)}
				_, resident := ref.items[key]
				resident = resident || data[i]&8 != 0
				if got, want := c.put(key, hash, resp, resident), ref.put(key, hash, resp); got != want {
					t.Fatalf("%s: put declined = %v; reference %v", step, got, want)
				}
			case 2:
				if got, want := c.purgeExcept(hash), ref.purgeExcept(hash); got != want {
					t.Fatalf("%s: purged %d; reference %d", step, got, want)
				}
			}
			if n := c.len(); n != len(ref.keys) || n > max(capacity, 0) {
				t.Fatalf("%s: len %d; reference %d, capacity %d", step, n, len(ref.keys), capacity)
			}
			if err := c.verify(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
	})
}

// verify checks the cache's structural invariants under the write
// lock: the ring holds at most max entries, each mapped under its own
// key, the map holds nothing else, and the hand points into the ring.
func (c *clockCache) verify() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.ring); n > max(c.max, 0) || n != len(c.items) {
		return fmt.Errorf("ring holds %d entries, map %d, capacity %d", n, len(c.items), c.max)
	}
	for i, e := range c.ring {
		if c.items[e.key] != e {
			return fmt.Errorf("ring slot %d (%+v) is not the map's entry for its key", i, e.key)
		}
	}
	if c.hand != 0 && c.hand >= len(c.ring) {
		return fmt.Errorf("hand %d outside a ring of %d", c.hand, len(c.ring))
	}
	return nil
}

// TestCacheConcurrentInvariants runs get, put and purgeExcept from four
// goroutines on caches of capacity 1 to 4. Under -race it is the
// data-race proof for the lock-free hit and decline paths; throughout,
// the cache must never exceed its capacity or answer under another
// model hash, and at the end its ring and map must agree.
func TestCacheConcurrentInvariants(t *testing.T) {
	hashes := []string{"model-a", "model-b"}
	for capacity := 1; capacity <= 4; capacity++ {
		t.Run(fmt.Sprint("capacity ", capacity), func(t *testing.T) {
			c := newClockCache(capacity)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 4000; i++ {
						n := uint64(i*7 + w*13)
						key := cacheKey{shard: int(n % 3), capBits: n / 3 % 4}
						hash := hashes[n/12%2]
						switch n % 11 {
						case 0:
							c.purgeExcept(hash)
						case 1, 2, 3, 4:
							_, _, stale := c.get(key, hash)
							c.put(key, hash, Response{ModelHash: hash, ModelSeq: n}, stale)
						default:
							if resp, ok, _ := c.get(key, hash); ok && resp.ModelHash != hash {
								t.Errorf("get under %s answered with an entry computed under %s", hash, resp.ModelHash)
								return
							}
						}
						if got := c.len(); got > capacity {
							t.Errorf("len %d exceeds capacity %d", got, capacity)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if err := c.verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
