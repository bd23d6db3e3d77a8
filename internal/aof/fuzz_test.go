package aof_test

import (
	"bytes"
	"testing"

	"directload/internal/aof"
)

// FuzzDecode drives arbitrary bytes through the AOF record decoder.
// Anything it accepts must re-encode to the exact bytes consumed (the
// encoding is canonical: recomputing the CRC reproduces the input), and
// the view decoder GC and recovery scan with must agree with it on every
// input, accepted or not.
func FuzzDecode(f *testing.F) {
	f.Add(aof.Encode(aof.Record{Seq: 1, Version: 2, Key: []byte("k"), Value: []byte("v")}))
	f.Add(aof.Encode(aof.Record{Seq: 9, Version: 1, Flags: aof.FlagTombstone, Key: []byte("dead")}))
	f.Add(aof.Encode(aof.Record{Seq: 3, Version: 4, Flags: aof.FlagDedup, Key: []byte("dup"), Value: bytes.Repeat([]byte{7}, 512)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := aof.Decode(data)
		view, vn, verr := aof.DecodeView(data)
		if (err == nil) != (verr == nil) || n != vn || view.Seq != rec.Seq || view.Version != rec.Version ||
			view.Flags != rec.Flags || !bytes.Equal(view.Key, rec.Key) || !bytes.Equal(view.Value, rec.Value) {
			t.Fatalf("DecodeView = %+v, %d, %v; Decode = %+v, %d, %v", view, vn, verr, rec, n, err)
		}
		if err != nil {
			return
		}
		if n < aof.EncodedLen(0, 0) || n > len(data) {
			t.Fatalf("decoded length %d outside [header, %d]", n, len(data))
		}
		enc := aof.Encode(rec)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encode differs from the %d input bytes consumed", n)
		}
		rec2, n2, err := aof.Decode(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if n2 != n || rec2.Seq != rec.Seq || rec2.Version != rec.Version || rec2.Flags != rec.Flags ||
			!bytes.Equal(rec2.Key, rec.Key) || !bytes.Equal(rec2.Value, rec.Value) {
			t.Fatalf("round-trip record mismatch")
		}
	})
}
