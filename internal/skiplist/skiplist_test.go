package skiplist

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func intCmp(a, b int) int { return a - b }

func strCmp(a, b string) int { return strings.Compare(a, b) }

func TestSetGet(t *testing.T) {
	l := New[int, string](intCmp, 1)
	if _, ok := l.Get(1); ok {
		t.Fatal("Get on empty list should miss")
	}
	if !l.Set(1, "one") {
		t.Fatal("first Set should insert")
	}
	if l.Set(1, "uno") {
		t.Fatal("second Set of same key should replace, not insert")
	}
	v, ok := l.Get(1)
	if !ok || v != "uno" {
		t.Fatalf("Get(1) = %q, %v; want uno, true", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", l.Len())
	}
}

func TestOrderedIteration(t *testing.T) {
	l := New[int, int](intCmp, 4)
	perm := rand.New(rand.NewSource(9)).Perm(1000)
	for _, k := range perm {
		l.Set(k, k)
	}
	var got []int
	l.AscendAll(func(k, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 1000 {
		t.Fatalf("iterated %d items, want 1000", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("AscendAll must visit keys in ascending order")
	}
}

func TestAscendFrom(t *testing.T) {
	l := New[int, int](intCmp, 5)
	for i := 0; i < 100; i += 2 { // even keys only
		l.Set(i, i)
	}
	var got []int
	l.Ascend(51, func(k, v int) bool { // 51 absent; first >= is 52
		got = append(got, k)
		return len(got) < 3
	})
	want := []int{52, 54, 56}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Ascend(51) = %v, want %v", got, want)
	}
	visit := func(k, v int) bool {
		t.Fatalf("visited %d", k)
		return false
	}
	l.Ascend(99, visit) // past the last key
	New[int, int](intCmp, 9).Ascend(0, visit)
}

func TestStringKeys(t *testing.T) {
	l := New[string, int](strCmp, 10)
	keys := []string{"banana", "apple", "cherry", "apple/2", "apple/1"}
	for i, k := range keys {
		l.Set(k, i)
	}
	var got []string
	l.AscendAll(func(k string, _ int) bool {
		got = append(got, k)
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Fatalf("string keys out of order: %v", got)
	}
}

// Property: a skip list agrees with a reference map under a random
// sequence of Sets, repeated keys included, and iteration is always
// sorted.
func TestQuickAgainstMap(t *testing.T) {
	f := func(keys []int8) bool {
		l := New[int, int](intCmp, 42)
		ref := map[int]int{}
		for i, key := range keys {
			k := int(key)
			_, inRef := ref[k]
			if l.Set(k, i) == inRef {
				return false
			}
			ref[k] = i
		}
		if l.Len() != len(ref) {
			return false
		}
		prev := -1 << 30
		ok := true
		l.AscendAll(func(k, v int) bool {
			if k <= prev || ref[k] != v {
				ok = false
				return false
			}
			prev = k
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeInsertHeightGrowth(t *testing.T) {
	l := New[int, int](intCmp, 12)
	const n = 50000
	for i := 0; i < n; i++ {
		l.Set(i, i)
	}
	if l.Len() != n {
		t.Fatalf("Len() = %d, want %d", l.Len(), n)
	}
	// Spot-check lookups stay correct at scale.
	for _, k := range []int{0, 1, n / 2, n - 1} {
		if v, ok := l.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	l := New[int, int](intCmp, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Set(i, i)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New[int, int](intCmp, 1)
	for i := 0; i < 1<<16; i++ {
		l.Set(i, i)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Get(i & (1<<16 - 1))
	}
}

func ExampleList() {
	l := New[string, int](strCmp, 1)
	l.Set("url/b", 2)
	l.Set("url/a", 1)
	l.AscendAll(func(k string, v int) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// url/a 1
	// url/b 2
}
