package aof_test

import (
	"bytes"
	"testing"

	"directload/internal/aof"
)

// FuzzDecode drives arbitrary bytes through the AOF record decoder.
// Anything it accepts must lie inside the input and re-encode to the exact
// bytes consumed: the encoding is canonical, so recomputing the CRC over
// the decoded fields reproduces the input.
func FuzzDecode(f *testing.F) {
	f.Add(aof.AppendRecord(nil, aof.Record{Seq: 1, Version: 2, Key: []byte("k"), Value: []byte("v")}))
	f.Add(aof.AppendRecord(nil, aof.Record{Seq: 9, Version: 1, Flags: aof.FlagTombstone, Key: []byte("dead")}))
	f.Add(aof.AppendRecord(nil, aof.Record{Seq: 3, Version: 4, Flags: aof.FlagDedup, Key: []byte("dup"), Value: bytes.Repeat([]byte{7}, 512)}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := aof.DecodeView(data)
		if err != nil {
			return
		}
		if n < aof.EncodedLen(0, 0) || n > len(data) {
			t.Fatalf("decoded length %d outside [header, %d]", n, len(data))
		}
		if n != aof.EncodedLen(len(rec.Key), len(rec.Value)) {
			t.Fatalf("decoded length %d, fields encode to %d", n, aof.EncodedLen(len(rec.Key), len(rec.Value)))
		}
		// Encode behind a prefix: AppendRecord must leave it alone.
		enc := aof.AppendRecord([]byte("prefix"), rec)
		if !bytes.Equal(enc[:6], []byte("prefix")) || !bytes.Equal(enc[6:], data[:n]) {
			t.Fatalf("re-encode differs from the %d input bytes consumed", n)
		}
	})
}
