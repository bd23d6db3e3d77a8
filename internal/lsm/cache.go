package lsm

import (
	"container/list"
	"sync"
)

// blockCache is the LRU data-block cache LevelDB fronts its SSTables
// with (default 8 MB; scaled down alongside the other constants in the
// experiments). Cached blocks are served without device time, which is
// where the baseline's read-mean benefits on skewed workloads come from.
type blockCache struct {
	mu    sync.Mutex
	cap   int64
	size  int64
	ll    *list.List // front = most recent
	items map[cacheKey]*list.Element
}

type cacheKey struct {
	table uint64
	off   uint64
}

type cacheEntry struct {
	key  cacheKey
	data []byte
}

// newBlockCache returns a cache bounded to capacity bytes (nil if <= 0).
func newBlockCache(capacity int64) *blockCache {
	if capacity <= 0 {
		return nil
	}
	return &blockCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element),
	}
}

// get returns the cached block and promotes it.
func (c *blockCache) get(key cacheKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// put inserts a block, evicting LRU entries beyond capacity. Blocks
// larger than the whole cache are not cached.
func (c *blockCache) put(key cacheKey, data []byte) {
	if c == nil || int64(len(data)) > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		old := el.Value.(*cacheEntry)
		c.size += int64(len(data)) - int64(len(old.data))
		old.data = data
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.items[key] = el
		c.size += int64(len(data))
	}
	for c.size > c.cap {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, e.key)
		c.size -= int64(len(e.data))
	}
}

// dropTable evicts every cached block of a table (called when compaction
// deletes the file).
func (c *blockCache) dropTable(table uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.table == table {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.size -= int64(len(e.data))
		}
		el = next
	}
}
