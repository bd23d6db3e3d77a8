package ssd

import (
	"errors"
	"fmt"
	"time"
)

// FTL errors.
var (
	ErrBadLPN     = errors.New("ssd: logical page out of range")
	ErrLPNUnset   = errors.New("ssd: logical page not written")
	ErrDeviceFull = errors.New("ssd: device full of valid data")
)

const unmapped = int32(-1)

// FTL is a page-mapped flash translation layer: the "conventional SSD"
// the LSM baseline writes to. It exposes a logical page address space,
// remaps overwrites to fresh pages, and runs greedy garbage collection
// when free blocks run low. GC migrations are charged to the device's
// Sys counters, reproducing the hardware write amplification the paper
// shows in Fig. 4.
type FTL struct {
	// The embedded device lock does not cover FTL state; the FTL has its
	// own lock discipline: all public methods run under dev.mu indirectly
	// via device calls, but FTL metadata needs its own synchronization.
	// We reuse a dedicated mutex and never hold it across hook callbacks.
	dev          *Device
	logicalPages int

	mu       chan struct{} // buffered(1) semaphore; see lock()/unlock()
	l2p      []int32       // logical page -> physical page number, or -1
	blocks   map[int]*ftlBlock
	active   int // active block id, -1 if none
	lowWater int // run GC when free blocks drop to this
	pph      int // pages per block (cached)

	migratedPages int64
	gcRuns        int64
	page          []byte // GC migration's one page of scratch
}

type ftlBlock struct {
	lpns  []int32 // per page: owning logical page, or -1 once invalidated
	valid int
}

// FTLStats reports GC activity attributable to the translation layer.
type FTLStats struct {
	MigratedPages int64 // valid pages copied during device GC
	GCRuns        int64
	ValidPages    int64 // currently mapped logical pages
}

// NewFTL wraps dev with a page-mapped translation layer exposing
// logicalPages logical pages. The difference between the device's raw
// capacity and the logical capacity is the over-provisioning space GC
// needs; at least 4 spare blocks are required.
func NewFTL(dev *Device, logicalPages int) (*FTL, error) {
	cfg := dev.Config()
	spare := 4
	maxLogical := (cfg.Blocks - spare) * cfg.PagesPerBlock
	if logicalPages <= 0 || logicalPages > maxLogical {
		return nil, fmt.Errorf("ssd: logical pages %d out of range (max %d)", logicalPages, maxLogical)
	}
	f := &FTL{
		dev:          dev,
		logicalPages: logicalPages,
		mu:           make(chan struct{}, 1),
		l2p:          make([]int32, logicalPages),
		blocks:       make(map[int]*ftlBlock),
		active:       -1,
		lowWater:     2,
		pph:          cfg.PagesPerBlock,
		page:         make([]byte, cfg.PageSize),
	}
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	return f, nil
}

func (f *FTL) lock()   { f.mu <- struct{}{} }
func (f *FTL) unlock() { <-f.mu }

// LogicalPages returns the size of the logical address space.
func (f *FTL) LogicalPages() int { return f.logicalPages }

// Device returns the underlying flash device.
func (f *FTL) Device() *Device { return f.dev }

// Stats returns FTL-level GC statistics.
func (f *FTL) Stats() FTLStats {
	f.lock()
	defer f.unlock()
	var valid int64
	for _, b := range f.blocks {
		valid += int64(b.valid)
	}
	return FTLStats{MigratedPages: f.migratedPages, GCRuns: f.gcRuns, ValidPages: valid}
}

func (f *FTL) ppn(blockID, page int) int32 { return int32(blockID*f.pph + page) }

func (f *FTL) split(ppn int32) (blockID, page int) {
	return int(ppn) / f.pph, int(ppn) % f.pph
}

// Write stores data (at most one page) at logical page lpn, remapping it
// to a fresh physical page. It returns the simulated cost including any
// GC work it triggered.
func (f *FTL) Write(lpn int, data []byte) (time.Duration, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return 0, ErrBadLPN
	}
	f.lock()
	defer f.unlock()
	var total time.Duration
	cost, err := f.ensureActiveLocked(&total)
	if err != nil {
		return total, err
	}
	total += cost
	f.invalidateLocked(lpn)
	b := f.blocks[f.active]
	page := len(b.lpns)
	// Alignment is the caller's contract (blockfs hands over page[:pageSize]); the FTL forwards at most one page verbatim.
	c, err := f.dev.ProgramPage(OwnerFTL, f.active, page, data)
	total += c
	if err != nil {
		return total, err
	}
	b.lpns = append(b.lpns, int32(lpn))
	b.valid++
	f.l2p[lpn] = f.ppn(f.active, page)
	return total, nil
}

// ensureActiveLocked guarantees the active block has a free page,
// allocating a new block (after GC if needed).
func (f *FTL) ensureActiveLocked(total *time.Duration) (time.Duration, error) {
	if f.active >= 0 && len(f.blocks[f.active].lpns) < f.pph {
		return 0, nil
	}
	var cost time.Duration
	if f.dev.FreeBlocks() <= f.lowWater {
		c, err := f.gcLocked()
		cost += c
		if err != nil {
			return cost, err
		}
	}
	id, err := f.dev.AllocBlock(OwnerFTL)
	if err != nil {
		return cost, err
	}
	f.blocks[id] = &ftlBlock{lpns: make([]int32, 0, f.pph)}
	f.active = id
	return cost, nil
}

func (f *FTL) invalidateLocked(lpn int) {
	old := f.l2p[lpn]
	if old == unmapped {
		return
	}
	blockID, page := f.split(old)
	b := f.blocks[blockID]
	if b != nil && b.lpns[page] == int32(lpn) {
		b.lpns[page] = unmapped
		b.valid--
	}
	f.l2p[lpn] = unmapped
}

// Read copies the page stored at lpn, from byte inPage on, into dst (see
// Device.ReadPage).
func (f *FTL) Read(lpn, inPage int, dst []byte) (int, time.Duration, error) {
	if lpn < 0 || lpn >= f.logicalPages {
		return 0, 0, ErrBadLPN
	}
	f.lock()
	ppn := f.l2p[lpn]
	f.unlock()
	if ppn == unmapped {
		return 0, 0, fmt.Errorf("%w: %d", ErrLPNUnset, lpn)
	}
	blockID, page := f.split(ppn)
	return f.dev.ReadPage(OwnerFTL, blockID, page, inPage, dst)
}

// Trim invalidates lpn (the logical discard a filesystem issues when a
// file is deleted). The physical page becomes garbage to be collected.
func (f *FTL) Trim(lpn int) error {
	if lpn < 0 || lpn >= f.logicalPages {
		return ErrBadLPN
	}
	f.lock()
	defer f.unlock()
	f.invalidateLocked(lpn)
	return nil
}

// gcLocked reclaims blocks until the device has more than lowWater+1
// free blocks. Victims are chosen greedily (fewest valid pages). Valid
// pages are migrated into a dedicated destination chain, which is what
// charges the Sys-Read and Sys-Write amplification to the device.
func (f *FTL) gcLocked() (time.Duration, error) {
	var total time.Duration
	f.gcRuns++
	for f.dev.FreeBlocks() <= f.lowWater+1 {
		victim := f.pickVictimLocked()
		if victim < 0 {
			return total, ErrDeviceFull
		}
		vb := f.blocks[victim]
		for page, lpn := range vb.lpns {
			if lpn == unmapped {
				continue
			}
			_, c, err := f.dev.ReadPage(OwnerFTL, victim, page, 0, f.page)
			total += c
			if err != nil {
				return total, err
			}
			c, err = f.migrateWriteLocked(int(lpn), f.page)
			total += c
			if err != nil {
				return total, err
			}
			f.migratedPages++
		}
		c, err := f.dev.EraseBlock(OwnerFTL, victim)
		total += c
		if err != nil {
			return total, err
		}
		delete(f.blocks, victim)
		if f.active == victim {
			f.active = -1
		}
	}
	return total, nil
}

// migrateWriteLocked writes a migrated page to the active chain without
// re-triggering GC (GC holds spare blocks by construction: lowWater >= 2
// guarantees an allocatable block while collecting).
func (f *FTL) migrateWriteLocked(lpn int, data []byte) (time.Duration, error) {
	var total time.Duration
	if f.active < 0 || len(f.blocks[f.active].lpns) >= f.pph {
		id, err := f.dev.AllocBlock(OwnerFTL)
		if err != nil {
			return total, err
		}
		f.blocks[id] = &ftlBlock{lpns: make([]int32, 0, f.pph)}
		f.active = id
	}
	b := f.blocks[f.active]
	page := len(b.lpns)
	// GC migration re-programs a page read back from flash, so it is page-sized by construction.
	c, err := f.dev.ProgramPage(OwnerFTL, f.active, page, data)
	total += c
	if err != nil {
		return total, err
	}
	b.lpns = append(b.lpns, int32(lpn))
	b.valid++
	f.l2p[lpn] = f.ppn(f.active, page)
	return total, nil
}

// pickVictimLocked returns the fully-programmed, non-active block with
// the fewest valid pages, or -1 if none is reclaimable. Ties are broken
// toward the least-worn block, which levels wear at no extra migration
// cost. Blocks with all pages valid are skipped; if every block is fully
// valid the device is genuinely full.
func (f *FTL) pickVictimLocked() int {
	best, bestValid := -1, 1<<30
	var bestWear int64
	for id, b := range f.blocks {
		if id == f.active || len(b.lpns) < f.pph {
			continue
		}
		wear := f.dev.EraseCount(id)
		if b.valid < bestValid || (b.valid == bestValid && wear < bestWear) {
			best, bestValid, bestWear = id, b.valid, wear
		}
	}
	if best >= 0 && bestValid >= f.pph {
		return -1 // erasing it frees nothing
	}
	return best
}
