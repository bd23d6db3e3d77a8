package ssd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func newTestFTL(t *testing.T, blocks, logicalPages int) *FTL {
	t.Helper()
	d, err := NewDevice(testConfig(blocks))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFTL(d, logicalPages)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ftlRead reads one whole logical page into a buffer of its own.
func ftlRead(f *FTL, lpn int) ([]byte, time.Duration, error) {
	page := make([]byte, f.Device().Config().PageSize)
	_, cost, err := f.Read(lpn, 0, page)
	return page, cost, err
}

func TestFTLReadWrite(t *testing.T) {
	f := newTestFTL(t, 8, 64)
	want := []byte("hello flash")
	if _, err := f.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := ftlRead(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("Read(3) = %q", got[:len(want)])
	}
	if _, _, err := ftlRead(f, 4); !errors.Is(err, ErrLPNUnset) {
		t.Fatalf("Read of an unwritten neighbour err = %v", err)
	}
}

func TestFTLBounds(t *testing.T) {
	f := newTestFTL(t, 8, 64)
	if _, err := f.Write(-1, nil); !errors.Is(err, ErrBadLPN) {
		t.Fatalf("Write(-1) err = %v", err)
	}
	if _, err := f.Write(64, nil); !errors.Is(err, ErrBadLPN) {
		t.Fatalf("Write(64) err = %v", err)
	}
	if _, _, err := ftlRead(f, 5); !errors.Is(err, ErrLPNUnset) {
		t.Fatalf("Read of unwritten lpn err = %v", err)
	}
	if err := f.Trim(99); !errors.Is(err, ErrBadLPN) {
		t.Fatalf("Trim(99) err = %v", err)
	}
}

func TestFTLOverProvisionLimit(t *testing.T) {
	d, _ := NewDevice(testConfig(8))
	// 8 blocks * 64 pages = 512 physical pages; max logical is (8-4)*64.
	if _, err := NewFTL(d, 4*64+1); err == nil {
		t.Fatal("logical space beyond over-provision limit should be rejected")
	}
	if _, err := NewFTL(d, 0); err == nil {
		t.Fatal("zero logical pages should be rejected")
	}
	if _, err := NewFTL(d, 4*64); err != nil {
		t.Fatalf("max logical pages should be accepted: %v", err)
	}
}

func TestFTLOverwriteRemaps(t *testing.T) {
	f := newTestFTL(t, 8, 64)
	f.Write(0, []byte("v1"))
	f.Write(0, []byte("v2"))
	got, _, _ := ftlRead(f, 0)
	if string(got[:2]) != "v2" {
		t.Fatalf("after overwrite Read = %q, want v2", got[:2])
	}
	// Two programs happened even though one logical page is live.
	if s := f.dev.Stats(); s.SysWriteBytes != 2*4096 {
		t.Fatalf("SysWriteBytes = %d, want 2 pages", s.SysWriteBytes)
	}
}

func TestFTLTrim(t *testing.T) {
	f := newTestFTL(t, 8, 64)
	f.Write(1, []byte("x"))
	if err := f.Trim(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ftlRead(f, 1); !errors.Is(err, ErrLPNUnset) {
		t.Fatalf("Read after Trim err = %v", err)
	}
	if err := f.Trim(1); err != nil {
		t.Fatal("double Trim must be a no-op, not an error")
	}
}

// TestFTLGCReclaimsSpace overwrites a small logical space many times so
// the device fills with invalid pages; GC must keep it writable forever.
func TestFTLGCReclaimsSpace(t *testing.T) {
	f := newTestFTL(t, 16, 8*64) // 16 blocks physical, 8 blocks logical
	page := make([]byte, 4096)
	for round := 0; round < 40; round++ {
		for lpn := 0; lpn < 8*64; lpn++ {
			binary.LittleEndian.PutUint32(page, uint32(round*1000+lpn))
			if _, err := f.Write(lpn, page); err != nil {
				t.Fatalf("round %d lpn %d: %v", round, lpn, err)
			}
		}
	}
	// All logical pages must still read back the latest round.
	for lpn := 0; lpn < 8*64; lpn++ {
		got, _, err := ftlRead(f, lpn)
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(got); v != uint32(39*1000+lpn) {
			t.Fatalf("lpn %d = %d, want %d", lpn, v, 39*1000+lpn)
		}
	}
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("GC should have run under sustained overwrites")
	}
	if st.ValidPages != 8*64 {
		t.Fatalf("ValidPages = %d, want %d", st.ValidPages, 8*64)
	}
}

// TestFTLGCWriteAmplification checks the signature behaviour of Fig. 4:
// random overwrites on a nearly-full device force valid-page migration,
// so device writes exceed user writes.
func TestFTLGCWriteAmplification(t *testing.T) {
	f := newTestFTL(t, 32, 26*64)
	rng := rand.New(rand.NewSource(7))
	page := make([]byte, 4096)
	// Fill once, then overwrite randomly. Random overwrites scatter
	// invalid pages across blocks so GC must migrate.
	for lpn := 0; lpn < 26*64; lpn++ {
		f.Write(lpn, page)
	}
	for i := 0; i < 26*64*3; i++ {
		f.Write(rng.Intn(26*64), page)
	}
	userBytes := int64(26*64*4) * 4096
	wa := f.dev.Stats().WriteAmplification(userBytes)
	if wa <= 1.05 {
		t.Fatalf("write amplification = %.3f, expected > 1.05 under random overwrite", wa)
	}
	if f.Stats().MigratedPages == 0 {
		t.Fatal("expected migrated pages")
	}
}

// TestFTLSequentialTrimFriendly is the flip side: sequential writes with
// whole-range trims (the AOF pattern) produce almost no migration.
func TestFTLSequentialTrimFriendly(t *testing.T) {
	f := newTestFTL(t, 32, 26*64)
	page := make([]byte, 4096)
	for round := 0; round < 6; round++ {
		for lpn := 0; lpn < 26*64; lpn++ {
			if _, err := f.Write(lpn, page); err != nil {
				t.Fatal(err)
			}
		}
		for lpn := 0; lpn < 26*64; lpn++ {
			f.Trim(lpn)
		}
	}
	userBytes := int64(6*26*64) * 4096
	wa := f.dev.Stats().WriteAmplification(userBytes)
	if wa > 1.1 {
		t.Fatalf("write amplification = %.3f, want ~1.0 for sequential+trim", wa)
	}
}

func TestFTLDeviceFull(t *testing.T) {
	f := newTestFTL(t, 8, 4*64)
	page := make([]byte, 4096)
	// Fill every logical page (all valid, nothing trimmable).
	for lpn := 0; lpn < 4*64; lpn++ {
		if _, err := f.Write(lpn, page); err != nil {
			t.Fatal(err)
		}
	}
	// Keep overwriting one page: always exactly one invalid page per GC
	// cycle; the FTL must survive (slow, but correct).
	for i := 0; i < 200; i++ {
		if _, err := f.Write(0, page); err != nil {
			t.Fatalf("overwrite %d: %v", i, err)
		}
	}
}

// Property: after any random sequence of writes and trims, every mapped
// lpn reads back the last value written to it.
func TestFTLQuickConsistency(t *testing.T) {
	type op struct {
		LPN  uint8
		Trim bool
		Val  uint32
	}
	f := func(ops []op) bool {
		ftl := newTestFTLQuick()
		ref := map[int]uint32{}
		page := make([]byte, 4096)
		for _, o := range ops {
			lpn := int(o.LPN) % ftl.LogicalPages()
			if o.Trim {
				if ftl.Trim(lpn) != nil {
					return false
				}
				delete(ref, lpn)
			} else {
				binary.LittleEndian.PutUint32(page, o.Val)
				if _, err := ftl.Write(lpn, page); err != nil {
					return false
				}
				ref[lpn] = o.Val
			}
		}
		for lpn, want := range ref {
			got, _, err := ftlRead(ftl, lpn)
			if err != nil || binary.LittleEndian.Uint32(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func newTestFTLQuick() *FTL {
	d, _ := NewDevice(testConfig(8))
	f, _ := NewFTL(d, 2*64)
	return f
}
