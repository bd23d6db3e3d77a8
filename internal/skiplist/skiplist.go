// Package skiplist implements the probabilistic ordered map of Pugh
// (CACM 1990) that the LSM baseline's memtable is built on, as LevelDB's
// is. (QinDB's memtable, which the paper describes as a skip list, is a
// hash map per version: its operations are point lookups.) The list is
// generic over small value types and optimized for ordered scans.
//
// The list takes no lock of its own. Callers serialise mutations against
// every other access; lookups and iteration may run side by side. The
// LSM baseline touches its memtable under its own mutex.
package skiplist

import "math/rand"

const (
	maxHeight = 18 // supports ~2^18 * 4 items before degrading
	branching = 4  // P(level k+1 | level k) = 1/branching
)

// Compare returns a negative number if a sorts before b, zero if they are
// equal, and a positive number otherwise.
type Compare[K any] func(a, b K) int

type node[K, V any] struct {
	key   K
	value V
	next  []*node[K, V]
}

// List is an ordered map from K to V.
type List[K, V any] struct {
	cmp    Compare[K]
	head   *node[K, V]
	height int
	length int
	rng    *rand.Rand
}

// New creates an empty list ordered by cmp. The seed makes level choices
// deterministic, which keeps tests and benchmarks reproducible.
func New[K, V any](cmp Compare[K], seed int64) *List[K, V] {
	return &List[K, V]{
		cmp:    cmp,
		head:   &node[K, V]{next: make([]*node[K, V], maxHeight)},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Len returns the number of items in the list.
func (l *List[K, V]) Len() int {
	return l.length
}

func (l *List[K, V]) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGE returns the first node with key >= key, filling prev with the
// rightmost node before that position at every level.
func (l *List[K, V]) findGE(key K, prev []*node[K, V]) *node[K, V] {
	x := l.head
	for level := l.height - 1; level >= 0; level-- {
		for x.next[level] != nil && l.cmp(x.next[level].key, key) < 0 {
			x = x.next[level]
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0]
}

// Set inserts key with value, replacing any existing value for an equal
// key. It reports whether a new item was inserted (false means replaced).
func (l *List[K, V]) Set(key K, value V) bool {
	prev := make([]*node[K, V], maxHeight)
	for i := l.height; i < maxHeight; i++ {
		prev[i] = l.head
	}
	if n := l.findGE(key, prev); n != nil && l.cmp(n.key, key) == 0 {
		n.value = value
		return false
	}
	h := l.randomHeight()
	if h > l.height {
		l.height = h
	}
	n := &node[K, V]{key: key, value: value, next: make([]*node[K, V], h)}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	l.length++
	return true
}

// Get returns the value stored under key.
func (l *List[K, V]) Get(key K) (V, bool) {
	n := l.findGE(key, nil)
	if n != nil && l.cmp(n.key, key) == 0 {
		return n.value, true
	}
	var zero V
	return zero, false
}

// Ascend calls fn for every item with key >= from, in ascending order,
// until fn returns false. fn must not mutate the list.
func (l *List[K, V]) Ascend(from K, fn func(key K, value V) bool) {
	for n := l.findGE(from, nil); n != nil; n = n.next[0] {
		if !fn(n.key, n.value) {
			return
		}
	}
}

// AscendAll calls fn for every item in ascending order until fn returns
// false.
func (l *List[K, V]) AscendAll(fn func(key K, value V) bool) {
	for n := n0(l); n != nil; n = n.next[0] {
		if !fn(n.key, n.value) {
			return
		}
	}
}

func n0[K, V any](l *List[K, V]) *node[K, V] { return l.head.next[0] }
