package core

import (
	"fmt"
	"iter"
	"net/netip"
	"sort"
	"strings"
)

// LRU is a bounded map that evicts its least recently used entry when
// an insert would exceed the bound. The capture is a few heavy sources
// over a long tail of distinct ones, so every per-source table in the
// pipeline is one of these: the bus's adaptive shard tables, the
// relay's shed attribution, the streaming analyzer's source state and
// the trace ring's active spans.
//
// Values sit inline in the list entry, so an insert is one allocation.
// A pointer returned by Get, Peek or Add stays valid and keeps naming
// the same value until its entry is deleted or evicted; after that it
// names a detached value nobody else sees. LRU is not safe for
// concurrent use: owners guard it with their own mutex.
type LRU[K comparable, V any] struct {
	max  int
	m    map[K]*lruEntry[K, V]
	root lruEntry[K, V] // sentinel: root.next is the most recent, root.prev the least
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

// NewLRU returns an empty table holding at most size entries (at least
// one).
func NewLRU[K comparable, V any](size int) *LRU[K, V] {
	l := &LRU[K, V]{max: max(size, 1), m: make(map[K]*lruEntry[K, V])}
	l.root.prev, l.root.next = &l.root, &l.root
	return l
}

// Len returns the number of entries.
func (l *LRU[K, V]) Len() int { return len(l.m) }

// Get returns k's value, marking it the most recently used, or nil when
// k is absent.
func (l *LRU[K, V]) Get(k K) *V {
	e := l.m[k]
	if e == nil {
		return nil
	}
	if l.root.next != e {
		l.unlink(e)
		l.pushFront(e)
	}
	return &e.val
}

// Peek returns k's value without changing its recency, or nil when k is
// absent. Scrape-time readers use it so that looking does not keep a
// source alive.
func (l *LRU[K, V]) Peek(k K) *V {
	if e := l.m[k]; e != nil {
		return &e.val
	}
	return nil
}

// Add stores v under k as the most recently used entry and returns the
// stored value. When k is new and the table is full, the least recently
// used entry is removed first and evicted is its value, so the owner
// can settle its books; otherwise evicted is nil. Adding a present key
// replaces its value and evicts nothing.
func (l *LRU[K, V]) Add(k K, v V) (val, evicted *V) {
	if e := l.m[k]; e != nil {
		e.val = v
		return l.Get(k), nil
	}
	if len(l.m) >= l.max {
		old := l.root.prev
		l.unlink(old)
		delete(l.m, old.key)
		evicted = &old.val
	}
	e := &lruEntry[K, V]{key: k, val: v}
	l.m[k] = e
	l.pushFront(e)
	return &e.val, evicted
}

// Delete removes k if present.
func (l *LRU[K, V]) Delete(k K) {
	if e := l.m[k]; e != nil {
		l.unlink(e)
		delete(l.m, k)
	}
}

// All yields every entry from the most to the least recently used,
// without changing recency. The table must not be modified during the
// iteration, but the yielded values may be.
func (l *LRU[K, V]) All() iter.Seq2[K, *V] {
	return func(yield func(K, *V) bool) {
		for e := l.root.next; e != &l.root; e = e.next {
			if !yield(e.key, &e.val) {
				return
			}
		}
	}
}

func (l *LRU[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = &l.root, l.root.next
	l.root.next.prev = e
	l.root.next = e
}

func (l *LRU[K, V]) unlink(e *lruEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// SourceShed is one entry of a heaviest-shedders list: a source address
// and how many of its events were shed.
type SourceShed struct {
	Addr netip.Addr
	Shed uint64
}

// TopShedders is the length of every heaviest-shedders list.
const TopShedders = 8

// Heaviest sorts shedders heaviest first, ties by address, and keeps at
// most TopShedders of them.
func Heaviest(s []SourceShed) []SourceShed {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Shed != s[j].Shed {
			return s[i].Shed > s[j].Shed
		}
		return s[i].Addr.Less(s[j].Addr)
	})
	return s[:min(len(s), TopShedders)]
}

// WriteShed appends the log-line fragment naming the heaviest shedders
// and the sheds whose source is no longer attributed, as in
// " shed[203.0.113.9=120 evicted=4]". It writes nothing when both are
// empty.
func WriteShed(sb *strings.Builder, top []SourceShed, unattributed uint64) {
	if len(top) == 0 && unattributed == 0 {
		return
	}
	sb.WriteString(" shed[")
	for i, sd := range top {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(sb, "%s=%d", sd.Addr, sd.Shed)
	}
	if unattributed > 0 {
		if len(top) > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(sb, "evicted=%d", unattributed)
	}
	sb.WriteByte(']')
}
