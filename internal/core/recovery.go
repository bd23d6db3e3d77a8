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

// Checkpoint writes a durable image of the memtable and returns the
// simulated device cost. Older checkpoints are removed. The caller may
// invoke it on any schedule; with Options.CheckpointEveryBytes set the
// engine also checkpoints itself periodically, as the paper describes.
func (db *DB) Checkpoint() (time.Duration, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	return db.checkpointLocked()
}

// maybeCheckpointLocked runs the periodic checkpoint policy. Runs with
// wmu held.
func (db *DB) maybeCheckpointLocked() (time.Duration, error) {
	if db.opts.CheckpointEveryBytes <= 0 || db.sinceCkpt < db.opts.CheckpointEveryBytes {
		return 0, nil
	}
	return db.checkpointLocked()
}

// checkpointLocked writes the checkpoint. Runs with wmu held and takes
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

	// The image's exact length first, so the walk appends without growing.
	size, items := 8+4+4*len(sealed)+4, 0
	for _, seg := range db.segs {
		items += len(seg.items)
		for k := range seg.items {
			size += ckptItemLen + len(k)
		}
	}
	body := make([]byte, 0, size)
	put32 := func(v uint32) { body = binary.LittleEndian.AppendUint32(body, v) }
	put64 := func(v uint64) { body = binary.LittleEndian.AppendUint64(body, v) }
	put64(floor)
	put32(uint32(len(sealed)))
	for _, id := range sealed {
		put32(id)
	}
	put32(uint32(items))
	for _, seg := range db.segs {
		for _, k := range seg.keys() {
			it := seg.items[k]
			flags := it.flags
			if seg.retired {
				flags |= fDeleted
			}
			put32(uint32(len(k)))
			body = append(body, k...)
			put64(seg.ver)
			body = append(body, flags)
			put64(it.base)
			put32(it.ref.File)
			put64(uint64(it.ref.Off))
			put32(it.ref.Len)
		}
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

// loadCheckpoint reads and validates the newest checkpoint, populating
// the memtable and returning (floorSeq, sealed file set, true). A missing
// or corrupt checkpoint yields ok=false and recovery falls back to a full
// scan.
func (db *DB) loadCheckpoint() (floor uint64, sealed map[uint32]bool, ok bool) {
	var best string
	var bestFloor uint64
	for _, n := range db.fs.List() {
		if f, okName := parseCkptName(n); okName && (best == "" || f > bestFloor) {
			best, bestFloor = n, f
		}
	}
	if best == "" {
		return 0, nil, false
	}
	size, err := db.fs.Size(best)
	if err != nil || size < int64(len(ckptMagic))+4 {
		return 0, nil, false
	}
	r, err := db.fs.Open(best)
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
	for _, id := range files {
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
		if err != nil {
			return err
		}
	}
	if floor > maxSeq {
		maxSeq = floor
	}
	sort.SliceStable(replay, func(i, j int) bool { return replay[i].rec.Seq < replay[j].rec.Seq })

	touched := make(map[*item]bool)
	var tombs []aof.Ref // tombstones, for occupancy rebuild
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
	// and every count is whole before the second pass reads it. Tombstone
	// records count live from append and are never marked dead.
	for _, seg := range db.segs {
		seg.live = 0
		for k, it := range seg.items {
			it.refs = 0
			if seg.deleted(it) {
				continue
			}
			seg.live++
			if it.has(fHasBase) {
				if _, b := lookup(db, k, it.base); b != nil {
					b.refs++
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
	}

	db.maxSeq = maxSeq
	db.store.SeqFloor(maxSeq)
	return nil
}
