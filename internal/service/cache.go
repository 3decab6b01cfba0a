package service

import "sync"

// Cache is the in-process result cache: completed cell payloads keyed
// by the FNV-64a digest of (campaign identity, cell label). A
// re-submitted identical campaign is served from here without
// re-simulating — each hit is recorded into the new job's ledger as
// the exact payload bytes the original run journaled, so a cached job's
// ledger is indistinguishable from a simulated one.
//
// The cache lives for the daemon process; restarts rebuild it from the
// ledgers of the jobs they recover. Entries keep the full key string
// alongside the digest, so a digest collision degrades to a miss
// rather than serving the wrong cell's result.
type Cache struct {
	mu      sync.Mutex
	entries map[uint64]cacheEntry
	hits    int
	misses  int
}

type cacheEntry struct {
	key     string
	payload []byte
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[uint64]cacheEntry{}}
}

// Get returns the cached payload for the cell under the campaign
// identity config, if present.
func (c *Cache) Get(config, cell string) ([]byte, bool) {
	k := config + "\x00" + cell
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cellDigest(config, cell)]
	if !ok || e.key != k {
		c.misses++
		return nil, false
	}
	c.hits++
	return e.payload, true
}

// Put stores a completed cell's payload. Failed cells are never cached
// (the fault may be environmental); callers enforce that by only
// passing OK payloads.
func (c *Cache) Put(config, cell string, payload []byte) {
	k := config + "\x00" + cell
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[cellDigest(config, cell)] = cacheEntry{key: k, payload: payload}
}

// Stats returns lifetime hit/miss counts and the entry count.
func (c *Cache) Stats() (hits, misses, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
