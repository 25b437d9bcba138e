package bitstream

// Cache models the DDR-resident bitstream cache the PR server maintains:
// the first load of a bitstream streams it from the SD card (slow); once
// cached, later loads only pay the PCAP transfer. A bounded LRU keeps
// the model honest about DDR capacity.
type Cache struct {
	capacity int
	entries  map[string]*cacheNode
	head     *cacheNode // most recently used
	tail     *cacheNode // least recently used
	hits     uint64
	misses   uint64
}

type cacheNode struct {
	name       string
	prev, next *cacheNode
}

// NewCache returns an LRU cache holding up to capacity bitstreams.
// capacity <= 0 disables caching (every load misses). The index map is
// made at the first insert, so a board that never reconfigures never
// builds one.
func NewCache(capacity int) *Cache {
	c := new(Cache)
	c.Init(capacity)
	return c
}

// Init makes a zero Cache, in place, an empty cache of the given
// capacity.
func (c *Cache) Init(capacity int) { c.capacity = capacity }

// Lookup reports whether name is cached, inserting it (and evicting the
// LRU entry if full) when it is not. This matches the PR server's flow:
// a miss triggers the SD read that fills the cache.
func (c *Cache) Lookup(name string) (hit bool) {
	if c.capacity <= 0 {
		c.misses++
		return false
	}
	if n, ok := c.entries[name]; ok {
		c.hits++
		c.moveToFront(n)
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
	if n, ok := c.entries[name]; ok {
		c.moveToFront(n)
		return
	}
	c.insert(name)
}

// insert adds an uncached name as most recently used. A full cache
// evicts its LRU entry first and reuses that entry's node, so a cache
// at capacity inserts without allocating.
func (c *Cache) insert(name string) {
	if c.entries == nil {
		c.entries = make(map[string]*cacheNode)
	}
	var n *cacheNode
	if len(c.entries) >= c.capacity {
		n = c.tail
		c.unlink(n)
		delete(c.entries, n.name)
		n.name = name
	} else {
		n = &cacheNode{name: name}
	}
	c.entries[name] = n
	c.pushFront(n)
}

// Contains reports whether name is cached without touching LRU order.
func (c *Cache) Contains(name string) bool {
	_, ok := c.entries[name]
	return ok
}

// Len returns the number of cached bitstreams.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

func (c *Cache) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache) moveToFront(n *cacheNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
