package core

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// keysOf lists an LRU's keys from the most to the least recently used.
func keysOf(l *LRU[int, int]) []int {
	var out []int
	for k := range l.All() {
		out = append(out, k)
	}
	return out
}

func TestLRUBoundAndVictim(t *testing.T) {
	l := NewLRU[int, int](3)
	for k := 1; k <= 3; k++ {
		if _, ev := l.Add(k, k*10); ev != nil {
			t.Fatalf("Add(%d) evicted %d below the bound", k, *ev)
		}
	}
	// Touch 1, so 2 is now the least recently used.
	if v := l.Get(1); v == nil || *v != 10 {
		t.Fatalf("Get(1) = %v, want 10", v)
	}
	v, ev := l.Add(4, 40)
	if ev == nil || *ev != 20 {
		t.Fatalf("Add(4) evicted %v, want the LRU victim 20", ev)
	}
	if *v != 40 || l.Len() != 3 {
		t.Fatalf("after eviction: val %d len %d, want 40 and 3", *v, l.Len())
	}
	if l.Peek(2) != nil {
		t.Fatal("evicted key 2 still present")
	}
	if got, want := keysOf(l), []int{4, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recency order %v, want %v", got, want)
	}
	// Re-adding a present key replaces its value and evicts nothing.
	if v, ev := l.Add(3, 33); ev != nil || *v != 33 || l.Len() != 3 {
		t.Fatalf("Add(present) = %d evicted %v len %d", *v, ev, l.Len())
	}
	for k := 10; k < 100; k++ {
		l.Add(k, k)
		if l.Len() > 3 {
			t.Fatalf("len %d past the bound of 3", l.Len())
		}
	}
}

func TestLRUGetPromotesPeekDoesNot(t *testing.T) {
	l := NewLRU[int, int](2)
	l.Add(1, 1)
	l.Add(2, 2)
	if v := l.Peek(1); v == nil || *v != 1 {
		t.Fatalf("Peek(1) = %v, want 1", v)
	}
	if _, ev := l.Add(3, 3); ev == nil || *ev != 1 {
		t.Fatalf("after Peek(1), Add(3) evicted %v, want 1", ev)
	}
	l.Get(2)
	if _, ev := l.Add(4, 4); ev == nil || *ev != 3 {
		t.Fatalf("after Get(2), Add(4) evicted %v, want 3", ev)
	}
	if l.Get(3) != nil || l.Peek(3) != nil {
		t.Fatal("Get/Peek of an absent key returned a value")
	}
}

func TestLRUValuesInPlace(t *testing.T) {
	l := NewLRU[string, []int](4)
	v, _ := l.Add("a", nil)
	*v = append(*v, 1)
	*l.Get("a") = append(*l.Get("a"), 2)
	for _, p := range l.All() {
		*p = append(*p, 3)
	}
	if got := *l.Peek("a"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("value %v, want [1 2 3] written through every accessor", got)
	}
}

func TestLRUDeleteAndAll(t *testing.T) {
	l := NewLRU[int, int](4)
	for k := 1; k <= 4; k++ {
		l.Add(k, k)
	}
	l.Delete(2)
	l.Delete(2) // absent: a no-op
	if got, want := keysOf(l), []int{4, 3, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Delete(2): %v, want %v", got, want)
	}
	// The freed slot takes a new key without evicting.
	if _, ev := l.Add(5, 5); ev != nil || l.Len() != 4 {
		t.Fatalf("Add after Delete evicted %v, len %d", ev, l.Len())
	}
	n := 0
	for range l.All() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("All ignored an early break")
	}
	for k := range l.All() {
		l.Peek(k) // reading during iteration is allowed
	}
	for _, k := range []int{5, 4, 3, 1} {
		l.Delete(k)
	}
	if l.Len() != 0 || len(keysOf(l)) != 0 {
		t.Fatalf("table not empty after deleting every key: %v", keysOf(l))
	}
}

func TestHeaviestAndWriteShed(t *testing.T) {
	var s []SourceShed
	for i := 1; i <= TopShedders+2; i++ {
		s = append(s, SourceShed{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), Shed: uint64(i % 4)})
	}
	top := Heaviest(s)
	if len(top) != TopShedders {
		t.Fatalf("%d shedders kept, want %d", len(top), TopShedders)
	}
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if a.Shed < b.Shed || (a.Shed == b.Shed && !a.Addr.Less(b.Addr)) {
			t.Fatalf("not heaviest first, ties by address: %v", top)
		}
	}

	var sb strings.Builder
	WriteShed(&sb, nil, 0)
	if sb.Len() != 0 {
		t.Fatalf("nothing shed rendered %q", sb.String())
	}
	WriteShed(&sb, top[:2], 4)
	if got, want := sb.String(), " shed[192.0.2.3=3 192.0.2.7=3 evicted=4]"; got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
	sb.Reset()
	WriteShed(&sb, nil, 4)
	if got := sb.String(); got != " shed[evicted=4]" {
		t.Fatalf("unattributed only rendered %q", got)
	}
}
