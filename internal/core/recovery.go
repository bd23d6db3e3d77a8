package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"directload/internal/aof"
)

// Recovery and checkpointing (paper §2.1, §2.3): after a failure the
// memtable and the GC table are rebuilt by scanning the AOFs. Periodic
// checkpoints bound the scan: a checkpoint freezes the memtable image
// and the set of sealed AOF files whose records it fully reflects;
// recovery then loads the image and replays only files written (or still
// active) after the checkpoint, in sequence-number order.

const ckptMagic = "QCKP1\n"

// ckptItemLen is an item's size in a checkpoint beside its key: key
// length, version, flags, base and the ref's file, offset and length.
const ckptItemLen = 4 + 8 + 1 + 8 + 4 + 8 + 4

func ckptName(floor uint64) string { return fmt.Sprintf("ckpt-%016d", floor) }

func parseCkptName(name string) (uint64, bool) {
	var floor uint64
	if _, err := fmt.Sscanf(name, "ckpt-%016d", &floor); err != nil {
		return 0, false
	}
	return floor, true
}

// maybeCheckpointLocked runs the periodic checkpoint policy. Runs with
// wmu held.
func (db *DB) maybeCheckpointLocked() (time.Duration, error) {
	if db.opts.CheckpointEveryBytes <= 0 || db.sinceCkpt < db.opts.CheckpointEveryBytes {
		return 0, nil
	}
	return db.checkpointLocked()
}

// checkpointLocked writes a durable image of the memtable and removes the
// older checkpoints. Runs with wmu held and takes
// no other engine lock: with the mutators out the memtable cannot change
// under the walk, and readers pass it.
func (db *DB) checkpointLocked() (cost time.Duration, err error) {
	floor := db.maxSeq
	// Every mutation appends a record and advances maxSeq, so an existing
	// checkpoint at this floor already holds an identical image.
	if _, err := db.fs.Size(ckptName(floor)); err == nil {
		return 0, nil
	}
	// Sealed files fully reflected by this checkpoint: every AOF except
	// the active one (whose tail may still grow).
	sealed := db.sealedFilesLocked()

	// The image is built in the buffer the last checkpoint left, which
	// trades an allocation of the image's size a checkpoint for a buffer
	// kept resident between checkpoints, at most twice the last image.
	body := db.ckptBuf[:0]
	put32 := func(v uint32) { body = binary.LittleEndian.AppendUint32(body, v) }
	put64 := func(v uint64) { body = binary.LittleEndian.AppendUint64(body, v) }
	put64(floor)
	put32(uint32(len(sealed)))
	for _, id := range sealed {
		put32(id)
	}
	put32(uint32(db.itemsLocked())) // what the views list, past the removed
	for _, seg := range db.segs {
		for _, e := range seg.keys() {
			it := e.it
			if it.has(fRemoved) {
				continue
			}
			flags := it.flags
			if seg.retired {
				flags |= fDeleted
			}
			put32(uint32(len(e.key)))
			body = append(body, e.key...)
			put64(seg.ver)
			body = append(body, flags)
			put64(it.base)
			put32(it.ref.File)
			put64(uint64(it.ref.Off))
			put32(it.ref.Len)
		}
	}
	db.ckptBuf = body
	if cap(body) > 2*len(body) { // the image shrank: let the buffer go
		db.ckptBuf = nil
	}

	name := ckptName(floor)
	w, err := db.fs.Create(name)
	if err != nil {
		return 0, err
	}
	_, c, err := w.Append([]byte(ckptMagic))
	cost += c
	if err == nil {
		_, c, err = w.Append(body)
		cost += c
	}
	if err == nil {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
		_, c, err = w.Append(crc[:])
		cost += c
	}
	if err != nil {
		_, cerr := w.Close()
		return cost, errors.Join(err, cerr)
	}
	c, err = w.Close()
	cost += c
	if err != nil {
		return cost, err
	}
	// Drop superseded checkpoints.
	for _, n := range db.fs.List() {
		if f, ok := parseCkptName(n); ok && f < floor {
			if c, err := db.fs.Remove(n); err == nil {
				cost += c
			}
		}
	}
	// The image holds every deletion recorded so far: the records that
	// carried them are dead from here on.
	for _, refs := range db.tombs {
		for _, ref := range refs {
			db.store.MarkDead(ref)
		}
	}
	clear(db.tombs)
	db.sinceCkpt = 0
	db.checkpoints.Add(1)
	return cost, nil
}

// sealedFilesLocked returns the ids of AOF files that will receive no
// further appends (everything except the active file).
func (db *DB) sealedFilesLocked() []uint32 {
	ids := db.store.Files()
	if n := len(ids); n > 0 {
		// The store appends strictly to the newest file; all others are
		// sealed. (A rotation could reopen a new id, never an old one.)
		return ids[:n-1]
	}
	return nil
}

// loadCheckpoint loads the newest intact checkpoint into the memtable and
// returns (floorSeq, sealed file set, true). A checkpoint that fails to
// validate — torn by a crash while it was written — is removed and the
// next older one tried: a full scan would bring back every deletion an
// intact checkpoint retired. With none intact, ok is false and recovery
// falls back to a full scan.
func (db *DB) loadCheckpoint() (floor uint64, sealed map[uint32]bool, ok bool) {
	var names []string
	for _, n := range db.fs.List() {
		if _, okName := parseCkptName(n); okName {
			names = append(names, n)
		}
	}
	// The names sort by floor: fixed-width decimal.
	for i := len(names) - 1; i >= 0; i-- {
		if floor, sealed, ok = db.readCheckpoint(names[i]); ok {
			return floor, sealed, true
		}
		db.segs = nil // what a body that passed its checksum yet failed to parse added
		_, _ = db.fs.Remove(names[i])
	}
	return 0, nil, false
}

// readCheckpoint validates the checkpoint name and, if it is intact,
// populates the memtable from it.
func (db *DB) readCheckpoint(name string) (floor uint64, sealed map[uint32]bool, ok bool) {
	size, err := db.fs.Size(name)
	if err != nil || size < int64(len(ckptMagic))+4 {
		return 0, nil, false
	}
	r, err := db.fs.Open(name)
	if err != nil {
		return 0, nil, false
	}
	buf := make([]byte, size)
	if _, _, err := r.ReadAt(buf, 0); err != nil {
		return 0, nil, false
	}
	if string(buf[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, false
	}
	body := buf[len(ckptMagic) : size-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(buf[size-4:]) {
		return 0, nil, false
	}
	p := 0
	need := func(n int) bool { return p+n <= len(body) }
	get32 := func() uint32 { v := binary.LittleEndian.Uint32(body[p:]); p += 4; return v }
	get64 := func() uint64 { v := binary.LittleEndian.Uint64(body[p:]); p += 8; return v }
	if !need(12) {
		return 0, nil, false
	}
	floor = get64()
	sealedN := int(get32())
	sealed = make(map[uint32]bool, sealedN)
	for i := 0; i < sealedN; i++ {
		if !need(4) {
			return 0, nil, false
		}
		sealed[get32()] = true
	}
	if !need(4) {
		return 0, nil, false
	}
	count := int(get32())
	for i := 0; i < count; i++ {
		if !need(4) {
			return 0, nil, false
		}
		klen := int(get32())
		if !need(klen + ckptItemLen - 4) {
			return 0, nil, false
		}
		key := string(body[p : p+klen])
		p += klen
		ver := get64()
		flags := body[p]
		p++
		base := get64()
		ref := aof.Ref{File: get32()}
		ref.Off = int64(get64())
		ref.Len = get32()
		db.segmentFor(ver).add(key, &item{ref: ref, base: base, flags: flags})
	}
	return floor, sealed, true
}

// recover rebuilds the memtable, version table and GC occupancy table
// from flash. Called by Open with no other users of the DB.
func (db *DB) recover() error {
	files := db.store.Files()
	if len(files) == 0 && len(db.fs.List()) == 0 {
		return nil // fresh store
	}
	floor, sealedAtCkpt, haveCkpt := db.loadCheckpoint()

	// Gather records that post-date the checkpoint. Files sealed at
	// checkpoint time contain only pre-floor records and are skipped. The
	// scan hands out views: what replay needs of a record — never its
	// value, only the 8-byte base a dedup record carries there — is
	// copied out, so recovery's memory grows with the keys replayed.
	type replayRec struct {
		rec     aof.Record // header fields only: Key and Value are dropped
		key     string
		base    uint64
		hasBase bool
		ref     aof.Ref
	}
	var replay []replayRec
	var maxSeq uint64
	torn := -1 // index in files of a newest file with a torn tail
	for i, id := range files {
		if haveCkpt && sealedAtCkpt[id] {
			continue
		}
		err := db.store.ScanFile(id, func(rec aof.Record, ref aof.Ref) error {
			if rec.Seq >= maxSeq {
				maxSeq = rec.Seq + 1
			}
			if haveCkpt && rec.Seq < floor {
				return nil
			}
			rr := replayRec{rec: rec, key: string(rec.Key), ref: ref}
			if rec.IsDedup() {
				rr.base, rr.hasBase = decodeBase(rec.Value)
			}
			rr.rec.Key, rr.rec.Value = nil, nil
			replay = append(replay, rr)
			return nil
		})
		// A crash in the middle of an append leaves the newest file torn:
		// the records before the bad one are kept. Anywhere else a bad
		// record is damage, and recovery stops.
		if i == len(files)-1 && errors.Is(err, aof.ErrCorrupt) {
			torn = i
		} else if err != nil {
			return err
		}
	}
	if floor > maxSeq {
		maxSeq = floor
	}
	sort.SliceStable(replay, func(i, j int) bool { return replay[i].rec.Seq < replay[j].rec.Seq })

	touched := make(map[*item]bool)
	var tombs []aof.Ref // deletion records replayed
	for _, rr := range replay {
		rec := rr.rec
		switch {
		case rec.IsVersionDrop():
			if seg := db.segment(rec.Version); seg != nil {
				seg.retired = true
			}
			tombs = append(tombs, rr.ref)
		case rec.IsTombstone():
			if _, it := lookup(db, rr.key, rec.Version); it != nil {
				it.flags |= fDeleted
			}
			tombs = append(tombs, rr.ref)
		default:
			var flags uint8
			if rec.IsDedup() {
				flags |= fDedup
				if rr.hasBase {
					flags |= fHasBase
				}
			}
			if rec.IsDropped() {
				flags |= fDeleted | fOnDiskDeleted
			}
			seg := db.segmentFor(rec.Version)
			if seg.retired {
				seg.unretire()
			}
			it := &item{ref: rr.ref, base: rr.base, flags: flags}
			seg.add(rr.key, it)
			touched[it] = true
		}
	}

	// Checkpointed items whose file was erased by GC after the
	// checkpoint: if the record had been relocated, the replay above
	// re-pointed the item (GC relocation always assigns a post-floor
	// sequence number). Anything still pointing into a missing file was
	// dropped by GC as dead — remove it.
	if haveCkpt {
		exists := make(map[uint32]bool, len(files))
		for _, id := range files {
			exists[id] = true
		}
		for i := len(db.segs) - 1; i >= 0; i-- {
			seg := db.segs[i]
			for k, it := range seg.items {
				if !touched[it] && !exists[it.ref.File] {
					db.removeLocked(seg, k, it)
				}
			}
		}
	}

	// Rebuild the live counts, the referrer counts and the GC occupancy
	// table by the one rule normal operation keeps: refs counts the live
	// items bound to a base, and a data record counts live while its item
	// is live or refs is above zero. A referrer is newer than its base, so
	// in version order every base is reset before its referrers count it,
	// and every count is whole before the second pass reads it. The
	// deletion records replayed — those no checkpoint covers — count live
	// and are held until one does.
	// Each live item is bound here to its base item, which the engine
	// follows from then on.
	for _, seg := range db.segs {
		seg.live = 0
		for k, it := range seg.items {
			it.refs = 0
			if seg.deleted(it) {
				continue
			}
			seg.live++
			if it.has(fHasBase) {
				if _, it.to = lookup(db, k, it.base); it.to != nil {
					it.to.refs++
				}
			}
		}
	}
	for _, seg := range db.segs {
		for _, it := range seg.items {
			if !seg.deleted(it) || it.refs > 0 {
				db.store.MarkLive(it.ref)
			}
		}
	}
	for _, ref := range tombs {
		db.store.MarkLive(ref)
		db.tombs[ref.File] = append(db.tombs[ref.File], ref)
	}

	db.maxSeq = maxSeq
	db.store.SeqFloor(maxSeq)
	if torn < 0 {
		return nil
	}
	// The torn file is collected now: once a later file exists it is no
	// longer the newest, and its bad record would fail the next Open.
	db.wmu.Lock()
	defer db.wmu.Unlock()
	_, err := db.collectLocked(files[torn])
	return err
}
