// Package ssd simulates a flash solid-state drive at page/block
// granularity. It substitutes for the real SSDs and the native
// (open-channel) SSD programming interfaces used in the paper, which we
// do not have; see DESIGN.md §2.
//
// The simulator is faithful to the properties the paper measures:
//
//   - Asymmetric operations (paper Fig. 3): programs happen at page
//     granularity (4 KB), erases at block granularity (256 KB = 64 pages),
//     and pages within a block must be programmed sequentially.
//   - Device-level garbage collection (paper Fig. 4): the FTL layer in
//     ftl.go migrates valid pages out of victim blocks before erasing,
//     which is exactly the hardware read/write amplification QinDB's
//     block-aligned files avoid.
//   - Firmware counters: SysWriteBytes / SysReadBytes count every byte
//     the flash actually programs or reads — the "Sys Write"/"Sys Read"
//     series of paper Fig. 5. User-level write accounting is the storage
//     engine's job, not the device's.
//
// A calibrated latency model advances a virtual clock so experiments can
// report MB/s and microsecond latencies independent of host speed.
package ssd

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Common device errors.
var (
	ErrNoFreeBlocks   = errors.New("ssd: no free blocks")
	ErrBadBlock       = errors.New("ssd: block id out of range")
	ErrBadPage        = errors.New("ssd: page index out of range")
	ErrNotOwner       = errors.New("ssd: block not owned by caller")
	ErrOutOfOrder     = errors.New("ssd: pages must be programmed sequentially within a block")
	ErrPageOverflow   = errors.New("ssd: payload larger than a page")
	ErrPageUnwritten  = errors.New("ssd: reading an unprogrammed page")
	ErrDeviceReleased = errors.New("ssd: block already free")
)

// Config describes the device geometry and latency model. The defaults
// mirror the paper's Fig. 3: 4 KB pages, 64 pages per 256 KB block.
type Config struct {
	PageSize      int // bytes per page
	PagesPerBlock int // pages per erase block
	Blocks        int // total physical blocks
	Latency       LatencyModel
}

// LatencyModel holds per-operation costs. Channels models internal flash
// parallelism: total busy time is divided by Channels when advancing the
// virtual clock. Values roughly match mid-2010s NVMe MLC flash.
type LatencyModel struct {
	PageRead   time.Duration
	PageWrite  time.Duration
	BlockErase time.Duration
	Channels   int
}

// DefaultConfig returns the paper's geometry sized to capacity bytes
// (rounded down to whole blocks).
func DefaultConfig(capacity int64) Config {
	cfg := Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		Latency: LatencyModel{
			PageRead:   80 * time.Microsecond,
			PageWrite:  200 * time.Microsecond,
			BlockErase: 1500 * time.Microsecond,
			Channels:   4,
		},
	}
	cfg.Blocks = int(capacity / int64(cfg.PageSize*cfg.PagesPerBlock))
	return cfg
}

// BlockSize returns the erase-block size in bytes.
func (c Config) BlockSize() int { return c.PageSize * c.PagesPerBlock }

// Capacity returns the raw device capacity in bytes.
func (c Config) Capacity() int64 { return int64(c.Blocks) * int64(c.BlockSize()) }

func (c Config) validate() error {
	if c.PageSize <= 0 || c.PagesPerBlock <= 0 || c.Blocks <= 0 {
		return fmt.Errorf("ssd: invalid geometry %d/%d/%d", c.PageSize, c.PagesPerBlock, c.Blocks)
	}
	if c.Latency.Channels <= 0 {
		return errors.New("ssd: latency model needs at least one channel")
	}
	return nil
}

// Owner identifies who holds an allocated block. The device enforces
// that FTL-managed and natively-managed blocks are not mixed up.
type Owner uint8

// Block owners.
const (
	OwnerNone Owner = iota // free
	OwnerNative
	OwnerFTL
)

type block struct {
	data     []byte // PagesPerBlock*PageSize, allocated on first program and kept across erases
	written  int    // pages programmed so far (sequential-program pointer)
	owner    Owner
	eraseCnt int64
}

// Stats is a snapshot of the device firmware counters.
type Stats struct {
	SysWriteBytes int64 // bytes programmed to flash (any cause)
	SysReadBytes  int64 // bytes read from flash (any cause)
	Erases        int64 // block erase operations
	FreeBlocks    int   // currently free blocks
	BusyTime      time.Duration
}

// WriteAmplification returns SysWriteBytes divided by userBytes; the
// caller supplies the application-level byte count it tracked.
func (s Stats) WriteAmplification(userBytes int64) float64 {
	if userBytes == 0 {
		return 0
	}
	return float64(s.SysWriteBytes) / float64(userBytes)
}

// Device is the raw flash device. Its methods form the "native SSD
// programming interface" of paper §2.3: callers allocate whole blocks,
// program pages strictly in order, and erase whole blocks. The FTL type
// layers a conventional logical-page interface on top.
//
// All methods are safe for concurrent use.
type Device struct {
	mu     sync.Mutex
	cfg    Config
	blocks []block
	free   []int // LIFO free list of block ids

	sysWrite int64
	sysRead  int64
	erases   int64
	clock    time.Duration // virtual busy time

	// onWrite, if set, is invoked (without the device lock, via defer)
	// after each program operation with the virtual timestamp and byte
	// count. The experiment harness uses it for the Sys-Write series.
	onWrite func(now time.Duration, n int64)
	onRead  func(now time.Duration, n int64)
}

// NewDevice creates a device with all blocks free.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg, blocks: make([]block, cfg.Blocks)}
	d.free = make([]int, cfg.Blocks)
	for i := range d.free {
		d.free[i] = cfg.Blocks - 1 - i // pop order: 0, 1, 2, ...
	}
	return d, nil
}

// Config returns the device geometry.
func (d *Device) Config() Config { return d.cfg }

// SetTraceFuncs installs optional per-operation hooks for write and read
// traffic. Pass nil to clear. Hooks run synchronously after the
// operation; they must not call back into the device.
func (d *Device) SetTraceFuncs(onWrite, onRead func(now time.Duration, n int64)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onWrite = onWrite
	d.onRead = onRead
}

// Now returns the virtual clock: accumulated device busy time divided by
// channel parallelism.
func (d *Device) Now() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

func (d *Device) tick(dt time.Duration) time.Duration {
	cost := dt / time.Duration(d.cfg.Latency.Channels)
	d.clock += cost
	return cost
}

// Stats returns a snapshot of the firmware counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		SysWriteBytes: d.sysWrite,
		SysReadBytes:  d.sysRead,
		Erases:        d.erases,
		FreeBlocks:    len(d.free),
		BusyTime:      d.clock,
	}
}

// FreeBlocks returns how many blocks are unallocated.
func (d *Device) FreeBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// AllocBlock takes a free block for the given owner and returns its id.
func (d *Device) AllocBlock(owner Owner) (int, error) {
	if owner == OwnerNone {
		return 0, errors.New("ssd: cannot allocate for OwnerNone")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocLocked(owner)
}

func (d *Device) allocLocked(owner Owner) (int, error) {
	if len(d.free) == 0 {
		return 0, ErrNoFreeBlocks
	}
	id := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	b := &d.blocks[id]
	b.owner = owner
	b.written = 0
	return id, nil
}

func (d *Device) checkBlock(id int, owner Owner) (*block, error) {
	if id < 0 || id >= len(d.blocks) {
		return nil, ErrBadBlock
	}
	b := &d.blocks[id]
	if b.owner == OwnerNone {
		return nil, ErrDeviceReleased
	}
	if owner != OwnerNone && b.owner != owner {
		return nil, ErrNotOwner
	}
	return b, nil
}

// ProgramPage writes data (at most one page) into block id at pageIdx.
// NAND constraint: pageIdx must equal the number of pages already
// programmed in the block. Short payloads are zero-padded to a full page
// and a full page is charged to the counters, as real flash would. A full
// page into a block erased before is copied around the CPU cache
// (copyPage). It returns the simulated operation cost.
func (d *Device) ProgramPage(owner Owner, id, pageIdx int, data []byte) (time.Duration, error) {
	if len(data) > d.cfg.PageSize {
		return 0, ErrPageOverflow
	}
	d.mu.Lock()
	b, err := d.checkBlock(id, owner)
	if err != nil {
		d.mu.Unlock()
		return 0, err
	}
	if pageIdx < 0 || pageIdx >= d.cfg.PagesPerBlock {
		d.mu.Unlock()
		return 0, ErrBadPage
	}
	if pageIdx != b.written {
		d.mu.Unlock()
		return 0, fmt.Errorf("%w: block %d expects page %d, got %d", ErrOutOfOrder, id, b.written, pageIdx)
	}
	if b.data == nil {
		b.data = make([]byte, d.cfg.BlockSize())
	}
	off := pageIdx * d.cfg.PageSize
	switch page := b.data[off : off+d.cfg.PageSize]; {
	case len(data) < len(page):
		clear(page[copy(page, data):])
	case b.eraseCnt == 0:
		// The buffer was allocated for this first cycle, and its memory
		// zeroed just before (by the runtime, or by the kernel at the first
		// touch): its lines are in the cache, which a streaming store would
		// have to evict. A recycled buffer was last written a cycle ago.
		copy(page, data)
	default:
		copyPage(page, data)
	}
	b.written++
	d.sysWrite += int64(d.cfg.PageSize)
	cost := d.tick(d.cfg.Latency.PageWrite)
	now := d.clock
	hook := d.onWrite
	d.mu.Unlock()
	if hook != nil {
		hook(now, int64(d.cfg.PageSize))
	}
	return cost, nil
}

// ReadPage reads one page and copies it, from byte inPage on, into dst:
// as much as fits, returning how many bytes that was. The flash reads the
// whole page whatever the caller takes, so a full page is charged to the
// counters and the clock; the returned cost is that one page read.
func (d *Device) ReadPage(owner Owner, id, pageIdx, inPage int, dst []byte) (int, time.Duration, error) {
	d.mu.Lock()
	b, err := d.checkBlock(id, owner)
	if err != nil {
		d.mu.Unlock()
		return 0, 0, err
	}
	if pageIdx < 0 || pageIdx >= d.cfg.PagesPerBlock || inPage < 0 || inPage > d.cfg.PageSize {
		d.mu.Unlock()
		return 0, 0, ErrBadPage
	}
	if pageIdx >= b.written {
		d.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: block %d page %d", ErrPageUnwritten, id, pageIdx)
	}
	off := pageIdx * d.cfg.PageSize
	n := copy(dst, b.data[off+inPage:off+d.cfg.PageSize])
	d.sysRead += int64(d.cfg.PageSize)
	cost := d.tick(d.cfg.Latency.PageRead)
	now := d.clock
	hook := d.onRead
	d.mu.Unlock()
	if hook != nil {
		hook(now, int64(d.cfg.PageSize))
	}
	return n, cost, nil
}

// WrittenPages returns how many pages have been programmed in block id.
func (d *Device) WrittenPages(id int) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, err := d.checkBlock(id, OwnerNone)
	if err != nil {
		return 0, err
	}
	return b.written, nil
}

// EraseBlock erases the whole block and returns it to the free list.
// This is the only way to make programmed pages writable again — the
// asymmetry of paper Fig. 3.
func (d *Device) EraseBlock(owner Owner, id int) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, err := d.checkBlock(id, owner)
	if err != nil {
		return 0, err
	}
	b.owner = OwnerNone
	b.written = 0
	// b.data stays for the block's next program: ProgramPage overwrites
	// whole pages, pad included, and ReadPage refuses pages >= written, so
	// nothing of the erased contents can be read back.
	b.eraseCnt++
	d.erases++
	d.free = append(d.free, id)
	return d.tick(d.cfg.Latency.BlockErase), nil
}

// EraseCount returns how many times block id has been erased (wear).
func (d *Device) EraseCount(id int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id < 0 || id >= len(d.blocks) {
		return 0
	}
	return d.blocks[id].eraseCnt
}

// WearStats summarizes flash wear: NAND blocks endure a limited number
// of program/erase cycles, which is one of the paper's arguments against
// compaction-heavy designs ("not suitable due to its life span based on
// limited write cycles"). Skew is max/mean; a perfectly leveled device
// approaches 1.
type WearStats struct {
	MinErases  int64
	MaxErases  int64
	MeanErases float64
	Skew       float64
}

// WearStats returns the current wear distribution across all blocks.
func (d *Device) WearStats() WearStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.blocks) == 0 {
		return WearStats{}
	}
	ws := WearStats{MinErases: d.blocks[0].eraseCnt}
	var sum int64
	for i := range d.blocks {
		c := d.blocks[i].eraseCnt
		sum += c
		if c < ws.MinErases {
			ws.MinErases = c
		}
		if c > ws.MaxErases {
			ws.MaxErases = c
		}
	}
	ws.MeanErases = float64(sum) / float64(len(d.blocks))
	if ws.MeanErases > 0 {
		ws.Skew = float64(ws.MaxErases) / ws.MeanErases
	}
	return ws
}
