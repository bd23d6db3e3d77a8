package ssd

import (
	"testing"
)

// wear is the erase-count spread across d's blocks: the fewest and most
// erases of a block, their mean, and skew, max/mean (a perfectly levelled
// device approaches 1).
type wear struct {
	min, max   int64
	mean, skew float64
}

func wearOf(d *Device) wear {
	n := d.Config().Blocks
	w := wear{min: d.EraseCount(0)}
	var sum int64
	for id := 0; id < n; id++ {
		c := d.EraseCount(id)
		sum += c
		w.min, w.max = min(w.min, c), max(w.max, c)
	}
	w.mean = float64(sum) / float64(n)
	if w.mean > 0 {
		w.skew = float64(w.max) / w.mean
	}
	return w
}

func TestWearStatsEmptyAndFresh(t *testing.T) {
	d, _ := NewDevice(testConfig(8))
	if w := wearOf(d); w != (wear{}) {
		t.Fatalf("fresh device wear = %+v, want zeros", w)
	}
}

func TestWearStatsTracksErases(t *testing.T) {
	d, _ := NewDevice(testConfig(4))
	// Erase block 0 three times, block 1 once.
	for i := 0; i < 3; i++ {
		id, _ := d.AllocBlock(OwnerNative)
		if id != 0 {
			t.Fatalf("alloc order changed: got block %d", id)
		}
		d.EraseBlock(OwnerNative, id)
	}
	id, _ := d.AllocBlock(OwnerNative) // block 0 again (LIFO free list)
	id2, _ := d.AllocBlock(OwnerNative)
	d.EraseBlock(OwnerNative, id)
	d.EraseBlock(OwnerNative, id2)
	w := wearOf(d)
	if w.max < 4 || w.min != 0 {
		t.Fatalf("wear = %+v", w)
	}
	if w.skew <= 1 {
		t.Fatalf("skew = %v, want > 1 for uneven wear", w.skew)
	}
}

// TestFTLWearLeveling: under sustained uniform churn the tie-break
// victim selection keeps wear reasonably even across blocks.
func TestFTLWearLeveling(t *testing.T) {
	d, _ := NewDevice(testConfig(16))
	f, err := NewFTL(d, 10*64)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	for round := 0; round < 60; round++ {
		for lpn := 0; lpn < 10*64; lpn++ {
			if _, err := f.Write(lpn, page); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	w := wearOf(d)
	if w.mean < 10 {
		t.Fatalf("not enough churn for the test: %+v", w)
	}
	if w.skew > 2.0 {
		t.Fatalf("wear skew %.2f too high (max %d vs mean %.1f)",
			w.skew, w.max, w.mean)
	}
}
