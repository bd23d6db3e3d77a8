package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSlowLogThreshold(t *testing.T) {
	l := NewSlowLog(8, 10*time.Millisecond)
	l.Maybe("get", []byte("fast"), 9*time.Millisecond, "")
	l.Maybe("put", []byte("edge"), 10*time.Millisecond, "")
	l.Maybe("put", []byte("slow"), 25*time.Millisecond, "timeout")
	entries := l.Entries(0) // the two at or above the threshold
	if len(entries) != 2 || entries[0].Key != "edge" || entries[1].Key != "slow" {
		t.Fatalf("Entries = %+v", entries)
	}
	if entries[1].Err != "timeout" {
		t.Fatalf("err not retained: %+v", entries[1])
	}
}

func TestSlowLogDisabled(t *testing.T) {
	l := NewSlowLog(8, 0)
	l.Maybe("put", []byte("k"), time.Hour, "")
	if len(l.Entries(0)) != 0 {
		t.Fatal("disabled log recorded an entry")
	}
}

func TestSlowLogRingWrap(t *testing.T) {
	l := NewSlowLog(4, time.Millisecond)
	for i := 0; i < 10; i++ {
		l.Maybe("put", []byte(fmt.Sprintf("k-%d", i)), time.Second, "")
	}
	entries := l.Entries(0)
	if len(entries) != 4 {
		t.Fatalf("retained %d entries, want 4", len(entries))
	}
	// Oldest first: the ring kept the newest four, k-6..k-9.
	for i, e := range entries {
		if want := fmt.Sprintf("k-%d", 6+i); e.Key != want {
			t.Fatalf("entry %d key = %q, want %q", i, e.Key, want)
		}
	}
	// Entries(n) trims to the newest n, still oldest first.
	newest := l.Entries(2)
	if len(newest) != 2 || newest[0].Key != "k-8" || newest[1].Key != "k-9" {
		t.Fatalf("Entries(2) = %+v", newest)
	}
}

func TestSlowLogKeyTruncation(t *testing.T) {
	l := NewSlowLog(2, time.Millisecond)
	long := bytes.Repeat([]byte("x"), 1000)
	l.Maybe("put", long, time.Second, "")
	if got := len(l.Entries(0)[0].Key); got != 128 {
		t.Fatalf("retained key is %d bytes, want 128", got)
	}
}

func TestSlowLogNil(t *testing.T) {
	var l *SlowLog
	l.Maybe("put", []byte("k"), time.Hour, "")
	if l.Entries(0) != nil {
		t.Fatal("nil SlowLog should be inert")
	}
	var sb strings.Builder
	if _, err := WriteSlowEntries(&sb, l.FilterEntries(0, "put")); err != nil || sb.Len() != 0 {
		t.Fatalf("nil SlowLog rendered %q, %v", sb.String(), err)
	}
}

func TestSlowLogJSONAndText(t *testing.T) {
	l := NewSlowLog(4, time.Millisecond)
	l.Maybe("put", []byte("jk"), 5*time.Millisecond, "boom")
	raw, err := json.Marshal(l.Entries(0)) // the ?format=json body
	if err != nil {
		t.Fatal(err)
	}
	var entries []SlowEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Op != "put" || entries[0].Err != "boom" {
		t.Fatalf("round-tripped entries = %+v", entries)
	}
	var sb strings.Builder
	if _, err := WriteSlowEntries(&sb, l.Entries(0)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"put", "jk", "err=boom"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("text dump missing %q:\n%s", want, sb.String())
		}
	}
}

// TestSlowLogConcurrent hammers the ring from many goroutines; run
// under -race this guards the lock discipline.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Maybe("put", []byte(fmt.Sprintf("c-%d-%d", g, i)), time.Second, "")
				if i%16 == 0 {
					l.Entries(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(l.Entries(0)); got != 16 {
		t.Fatalf("retained %d, want 16", got)
	}
}
