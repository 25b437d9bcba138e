package bitstream

// Cache models the DDR-resident bitstream cache the PR server maintains:
// the first load of a bitstream streams it from the SD card (slow); once
// cached, later loads only pay the PCAP transfer. A bounded LRU keeps
// the model honest about DDR capacity.
//
// The entries are one slice in recency order, least recently used
// first. A board caches at most a few dozen bitstreams, and their names
// are interned (see TaskName), so comparing two of them is cheap: a
// linear scan finds an entry, and a cache costs one growing slice, not
// an allocation per bitstream.
type Cache struct {
	capacity int
	entries  []string // LRU first, MRU last; len <= capacity
	hits     uint64
	misses   uint64
}

// firstEntries is the length of the entry slice a cache makes at its
// first insert (or its capacity, if smaller); it doubles from there.
const firstEntries = 8

// NewCache returns an LRU cache holding up to capacity bitstreams.
// capacity <= 0 disables caching (every load misses). The entry slice
// is made at the first insert, so a board that never reconfigures never
// builds one.
func NewCache(capacity int) *Cache {
	c := new(Cache)
	c.Init(capacity)
	return c
}

// Init makes c, in place, an empty cache of the given capacity.
func (c *Cache) Init(capacity int) { *c = Cache{capacity: capacity} }

// Lookup reports whether name is cached, inserting it (and evicting the
// LRU entry if full) when it is not. This matches the PR server's flow:
// a miss triggers the SD read that fills the cache.
func (c *Cache) Lookup(name string) (hit bool) {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	if i := c.index(name); i >= 0 {
		c.hits++
		c.touch(i)
		return true
	}
	c.misses++
	c.insert(name)
	return false
}

// Warm inserts name without counting a miss — used by the pre-warming
// step of cross-board switching, which stages bitstreams on the target
// board ahead of migration.
func (c *Cache) Warm(name string) {
	if c.capacity <= 0 {
		return
	}
	if i := c.index(name); i >= 0 {
		c.touch(i)
		return
	}
	c.insert(name)
}

// index returns name's position in entries, or -1. It scans from the
// most recently used end, where repeated loads hit.
func (c *Cache) index(name string) int {
	for i := len(c.entries) - 1; i >= 0; i-- {
		if c.entries[i] == name {
			return i
		}
	}
	return -1
}

// touch makes entry i the most recently used.
func (c *Cache) touch(i int) {
	last := len(c.entries) - 1
	if i == last {
		return
	}
	name := c.entries[i]
	copy(c.entries[i:], c.entries[i+1:])
	c.entries[last] = name
}

// insert adds an uncached name as most recently used. A full cache
// evicts its LRU entry by shifting the rest down, so a cache at
// capacity inserts without allocating.
func (c *Cache) insert(name string) {
	n := len(c.entries)
	if n >= c.capacity {
		copy(c.entries, c.entries[1:])
		c.entries[n-1] = name
		return
	}
	if n == cap(c.entries) {
		grown := make([]string, n, min(max(2*n, firstEntries), c.capacity))
		copy(grown, c.entries)
		c.entries = grown
	}
	c.entries = append(c.entries, name)
}

// Contains reports whether name is cached without touching LRU order.
func (c *Cache) Contains(name string) bool { return c.index(name) >= 0 }

// Len returns the number of cached bitstreams.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }
