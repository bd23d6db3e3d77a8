package ssd

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func testConfig(blocks int) Config {
	return Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		Blocks:        blocks,
		Latency: LatencyModel{
			PageRead:   80 * time.Microsecond,
			PageWrite:  200 * time.Microsecond,
			BlockErase: 1500 * time.Microsecond,
			Channels:   1,
		},
	}
}

// readPage reads one whole page into a buffer of its own.
func readPage(d *Device, owner Owner, id, pageIdx int) ([]byte, time.Duration, error) {
	page := make([]byte, d.Config().PageSize)
	_, cost, err := d.ReadPage(owner, id, pageIdx, 0, page)
	return page, cost, err
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(1 << 30)
	if cfg.PageSize != 4096 || cfg.PagesPerBlock != 64 {
		t.Fatalf("geometry = %d/%d, want 4096/64 (paper Fig. 3)", cfg.PageSize, cfg.PagesPerBlock)
	}
	if cfg.BlockSize() != 256<<10 {
		t.Fatalf("BlockSize() = %d, want 256 KiB", cfg.BlockSize())
	}
	if cfg.Capacity() != 1<<30 {
		t.Fatalf("Capacity() = %d, want 1 GiB", cfg.Capacity())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDevice(Config{}); err == nil {
		t.Fatal("zero config should be rejected")
	}
	cfg := testConfig(8)
	cfg.Latency.Channels = 0
	if _, err := NewDevice(cfg); err == nil {
		t.Fatal("zero channels should be rejected")
	}
}

func TestAllocProgramReadErase(t *testing.T) {
	d, err := NewDevice(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.AllocBlock(OwnerNative)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 100)
	if _, err := d.ProgramPage(OwnerNative, id, 0, payload); err != nil {
		t.Fatal(err)
	}
	got, _, err := readPage(d, OwnerNative, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], payload) {
		t.Fatal("read back payload mismatch")
	}
	for _, b := range got[100:] {
		if b != 0 {
			t.Fatal("short program must zero-pad the page")
		}
	}
	if _, err := d.EraseBlock(OwnerNative, id); err != nil {
		t.Fatal(err)
	}
	if d.FreeBlocks() != 4 {
		t.Fatalf("FreeBlocks() = %d, want 4 after erase", d.FreeBlocks())
	}
}

func TestSequentialProgramConstraint(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	if _, err := d.ProgramPage(OwnerNative, id, 1, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skipping page 0 should fail with ErrOutOfOrder, got %v", err)
	}
	if _, err := d.ProgramPage(OwnerNative, id, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Rewriting an already-programmed page is also out of order: flash
	// pages cannot be reprogrammed without an erase.
	if _, err := d.ProgramPage(OwnerNative, id, 0, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("reprogramming page 0 should fail, got %v", err)
	}
}

func TestReadUnwrittenPage(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	if _, _, err := readPage(d, OwnerNative, id, 0); !errors.Is(err, ErrPageUnwritten) {
		t.Fatalf("want ErrPageUnwritten, got %v", err)
	}
}

func TestOwnershipEnforcement(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	if _, err := d.ProgramPage(OwnerFTL, id, 0, nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("cross-owner program should fail, got %v", err)
	}
	if _, err := d.EraseBlock(OwnerFTL, id); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("cross-owner erase should fail, got %v", err)
	}
	if _, err := d.AllocBlock(OwnerNone); err == nil {
		t.Fatal("AllocBlock(OwnerNone) should fail")
	}
}

func TestAllocExhaustion(t *testing.T) {
	d, _ := NewDevice(testConfig(3))
	for i := 0; i < 3; i++ {
		if _, err := d.AllocBlock(OwnerNative); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AllocBlock(OwnerNative); !errors.Is(err, ErrNoFreeBlocks) {
		t.Fatalf("want ErrNoFreeBlocks, got %v", err)
	}
}

func TestUseAfterErase(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	d.ProgramPage(OwnerNative, id, 0, []byte("x"))
	d.EraseBlock(OwnerNative, id)
	if _, _, err := readPage(d, OwnerNative, id, 0); !errors.Is(err, ErrDeviceReleased) {
		t.Fatalf("read after erase should fail, got %v", err)
	}
}

func TestStatsAndClock(t *testing.T) {
	d, _ := NewDevice(testConfig(4))
	id, _ := d.AllocBlock(OwnerNative)
	d.ProgramPage(OwnerNative, id, 0, []byte("a"))
	d.ProgramPage(OwnerNative, id, 1, []byte("b"))
	readPage(d, OwnerNative, id, 0)
	d.EraseBlock(OwnerNative, id)
	s := d.Stats()
	if s.SysWriteBytes != 2*4096 {
		t.Fatalf("SysWriteBytes = %d, want %d", s.SysWriteBytes, 2*4096)
	}
	if s.SysReadBytes != 4096 {
		t.Fatalf("SysReadBytes = %d, want 4096", s.SysReadBytes)
	}
	if s.Erases != 1 {
		t.Fatalf("Erases = %d, want 1", s.Erases)
	}
	want := 2*200*time.Microsecond + 80*time.Microsecond + 1500*time.Microsecond
	if s.BusyTime != want {
		t.Fatalf("BusyTime = %v, want %v", s.BusyTime, want)
	}
	if d.Now() != want {
		t.Fatalf("Now() = %v, want %v", d.Now(), want)
	}
}

func TestChannelsDivideLatency(t *testing.T) {
	cfg := testConfig(2)
	cfg.Latency.Channels = 4
	d, _ := NewDevice(cfg)
	id, _ := d.AllocBlock(OwnerNative)
	cost, _ := d.ProgramPage(OwnerNative, id, 0, nil)
	if cost != 50*time.Microsecond {
		t.Fatalf("cost = %v, want 50µs (200µs / 4 channels)", cost)
	}
}

func TestPageOverflow(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	big := make([]byte, 4097)
	if _, err := d.ProgramPage(OwnerNative, id, 0, big); !errors.Is(err, ErrPageOverflow) {
		t.Fatalf("want ErrPageOverflow, got %v", err)
	}
}

func TestTraceHooks(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	var wrote, read int64
	d.SetTraceFuncs(
		func(now time.Duration, n int64) { wrote += n },
		func(now time.Duration, n int64) { read += n },
	)
	id, _ := d.AllocBlock(OwnerNative)
	d.ProgramPage(OwnerNative, id, 0, []byte("x"))
	readPage(d, OwnerNative, id, 0)
	if wrote != 4096 || read != 4096 {
		t.Fatalf("hooks saw write=%d read=%d, want 4096 each", wrote, read)
	}
}

func TestWearTracking(t *testing.T) {
	d, _ := NewDevice(testConfig(1))
	for i := 0; i < 3; i++ {
		id, _ := d.AllocBlock(OwnerNative)
		d.EraseBlock(OwnerNative, id)
	}
	if got := d.EraseCount(0); got != 3 {
		t.Fatalf("EraseCount(0) = %d, want 3", got)
	}
}

func TestWrittenPages(t *testing.T) {
	d, _ := NewDevice(testConfig(2))
	id, _ := d.AllocBlock(OwnerNative)
	for i := 0; i < 5; i++ {
		d.ProgramPage(OwnerNative, id, i, nil)
	}
	n, err := d.WrittenPages(id)
	if err != nil || n != 5 {
		t.Fatalf("WrittenPages = %d, %v; want 5", n, err)
	}
}

func TestWriteAmplificationHelper(t *testing.T) {
	s := Stats{SysWriteBytes: 300}
	if got := s.WriteAmplification(100); got != 3 {
		t.Fatalf("WA = %v, want 3", got)
	}
	if got := s.WriteAmplification(0); got != 0 {
		t.Fatalf("WA with zero user bytes = %v, want 0", got)
	}
}

// TestErasedBlockKeepsNothingReadable: an erased block keeps its buffer for
// its next program, not its contents — pages not yet programmed again are
// refused, and a short program is zero-padded over whatever was there.
func TestErasedBlockKeepsNothingReadable(t *testing.T) {
	d, _ := NewDevice(testConfig(1))
	id, _ := d.AllocBlock(OwnerNative)
	old := bytes.Repeat([]byte{0xAB}, 4096)
	for page := 0; page < 3; page++ {
		if _, err := d.ProgramPage(OwnerNative, id, page, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.EraseBlock(OwnerNative, id); err != nil {
		t.Fatal(err)
	}
	if again, _ := d.AllocBlock(OwnerNative); again != id {
		t.Fatalf("AllocBlock = %d, want the erased block %d", again, id)
	}
	if _, _, err := readPage(d, OwnerNative, id, 0); !errors.Is(err, ErrPageUnwritten) {
		t.Fatalf("read of an erased page: %v, want ErrPageUnwritten", err)
	}
	if _, err := d.ProgramPage(OwnerNative, id, 0, []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _, err := readPage(d, OwnerNative, id, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("new"), make([]byte, 4093)...); !bytes.Equal(got, want) {
		t.Fatal("a short program over an erased page left old bytes behind its padding")
	}
	if _, _, err := readPage(d, OwnerNative, id, 1); !errors.Is(err, ErrPageUnwritten) {
		t.Fatalf("read of page 1, erased and not programmed since: %v, want ErrPageUnwritten", err)
	}
	// A window of a page: only the bytes that fit dst, from inPage on.
	dst := make([]byte, 2)
	if n, _, err := d.ReadPage(OwnerNative, id, 0, 1, dst); err != nil || n != 2 || string(dst) != "ew" {
		t.Fatalf("ReadPage window = %d %q, %v", n, dst, err)
	}
}
