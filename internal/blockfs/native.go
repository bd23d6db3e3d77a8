package blockfs

import (
	"errors"
	"time"

	"directload/internal/ssd"
)

// NativeFS stores each file in exclusively-owned erase blocks through the
// device's native interface. Files occupy whole blocks; Remove erases
// exactly those blocks. Because no two files ever share a block, device
// garbage collection never migrates a byte — the paper's block-aligned
// layout with zero hardware write amplification.
type NativeFS struct {
	core
	ppb int
}

// NewNativeFS creates a native filesystem over dev.
func NewNativeFS(dev *ssd.Device) *NativeFS {
	fs := &NativeFS{ppb: dev.Config().PagesPerBlock}
	fs.core = core{
		files:    make(map[string]*file),
		pageSize: dev.Config().PageSize,
		dev:      dev,
	}
	fs.core.readPage = fs.readPageRef
	fs.core.writePage = fs.writePage
	fs.core.freeFile = fs.releaseFile
	return fs
}

func (fs *NativeFS) readPageRef(ref int32, inPage int, dst []byte) (int, time.Duration, error) {
	return fs.dev.ReadPage(ssd.OwnerNative, int(ref)/fs.ppb, int(ref)%fs.ppb, inPage, dst)
}

// writePage programs page as the file's next, opening a fresh erase
// block when the last one is full. Runs with core.mu held.
func (fs *NativeFS) writePage(f *file, page []byte) (time.Duration, error) {
	pageInBlock := len(f.pages) % fs.ppb
	var blockID int
	if pageInBlock == 0 {
		id, err := fs.dev.AllocBlock(ssd.OwnerNative)
		if err != nil {
			return 0, err
		}
		blockID = id
	} else {
		blockID = int(f.pages[len(f.pages)-1]) / fs.ppb
	}
	cost, err := fs.dev.ProgramPage(ssd.OwnerNative, blockID, pageInBlock, page[:fs.pageSize])
	if err != nil {
		return cost, err
	}
	f.pages = append(f.pages, int32(blockID*fs.ppb+pageInBlock))
	return cost, nil
}

// releaseFile erases every block the file occupied. All pages in those
// blocks belong to this file, so the erase reclaims them wholesale.
func (fs *NativeFS) releaseFile(f *file) (time.Duration, error) {
	var total time.Duration
	var errs []error
	seen := int32(-1)
	for _, ref := range f.pages {
		blockID := ref / int32(fs.ppb)
		if blockID == seen {
			continue
		}
		seen = blockID
		cost, err := fs.dev.EraseBlock(ssd.OwnerNative, int(blockID))
		total += cost
		if err != nil {
			errs = append(errs, err)
		}
	}
	f.pages = nil
	f.tail = nil
	return total, errors.Join(errs...)
}

var _ FS = (*NativeFS)(nil)

// ErrSpaceExhausted is returned by FTLFS when the logical address space
// is fully allocated to live files.
var ErrSpaceExhausted = errors.New("blockfs: logical space exhausted")

// FTLFS stores files as logical pages of a conventional page-mapped FTL.
// Remove only trims the logical pages; the flash space is reclaimed later
// by device GC, paying the migration cost the paper attributes to
// non-block-aligned layouts.
type FTLFS struct {
	ftl      *ssd.FTL
	freeLPNs []int
	nextLPN  int
	core
}

// NewFTLFS creates a filesystem over a page-mapped FTL.
func NewFTLFS(ftl *ssd.FTL) *FTLFS {
	fs := &FTLFS{ftl: ftl}
	fs.core = core{
		files:    make(map[string]*file),
		pageSize: ftl.Device().Config().PageSize,
		dev:      ftl.Device(),
	}
	fs.core.readPage = fs.readPageRef
	fs.core.writePage = fs.writePage
	fs.core.freeFile = fs.releaseFile
	return fs
}

func (fs *FTLFS) readPageRef(ref int32, inPage int, dst []byte) (int, time.Duration, error) {
	return fs.ftl.Read(int(ref), inPage, dst)
}

// allocLPN hands out a free logical page. Runs with core.mu held.
func (fs *FTLFS) allocLPN() (int, error) {
	if n := len(fs.freeLPNs); n > 0 {
		lpn := fs.freeLPNs[n-1]
		fs.freeLPNs = fs.freeLPNs[:n-1]
		return lpn, nil
	}
	if fs.nextLPN >= fs.ftl.LogicalPages() {
		return 0, ErrSpaceExhausted
	}
	lpn := fs.nextLPN
	fs.nextLPN++
	return lpn, nil
}

// writePage programs page at a fresh logical page as the file's next.
// Runs with core.mu held.
func (fs *FTLFS) writePage(f *file, page []byte) (time.Duration, error) {
	lpn, err := fs.allocLPN()
	if err != nil {
		return 0, err
	}
	cost, err := fs.ftl.Write(lpn, page[:fs.pageSize])
	if err != nil {
		return cost, err
	}
	f.pages = append(f.pages, int32(lpn))
	return cost, nil
}

func (fs *FTLFS) releaseFile(f *file) (time.Duration, error) {
	// Trims are metadata-only at the FTL: no device time is charged here;
	// the real cost surfaces later as GC migration of co-located data.
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var errs []error
	for _, ref := range f.pages {
		if err := fs.ftl.Trim(int(ref)); err != nil {
			errs = append(errs, err)
		}
		fs.freeLPNs = append(fs.freeLPNs, int(ref))
	}
	f.pages = nil
	f.tail = nil
	return 0, errors.Join(errs...)
}

var _ FS = (*FTLFS)(nil)
