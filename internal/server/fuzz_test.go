package server

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzFrameCap rejects inputs whose declared frame length exceeds what
// any fuzz input can actually carry, so the fuzzer's budget is not
// spent allocating maxFrame-sized buffers that io.ReadFull immediately
// fails to fill.
const fuzzFrameCap = 1 << 20

// FuzzHelloFrame drives arbitrary bytes through the unsequenced frame
// reader the handshake uses and round-trips every frame it accepts. The
// first seed is the bare hello every dialer sends.
func FuzzHelloFrame(f *testing.F) {
	good, err := encodeRequest(request{Op: OpHello, Version: ProtoV2})
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := writeFrame(&seed, good); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) > fuzzFrameCap {
			return
		}
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, payload); err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		back, err := readFrame(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if !bytes.Equal(back, payload) {
			t.Fatalf("round-trip payload mismatch: %d vs %d bytes", len(back), len(payload))
		}
	})
}

// FuzzRequest drives arbitrary bytes through the request body parser
// and re-encodes whatever it accepts.
func FuzzRequest(f *testing.F) {
	for _, req := range []request{
		{Op: OpGet, Version: 3, Key: []byte("key")},
		{Op: OpPut, Version: 1, Key: []byte("k"), Value: []byte("some value")},
		{Op: OpPing},
	} {
		seed, err := encodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err != nil {
			return
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		back, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back.Op != req.Op || back.Version != req.Version ||
			!bytes.Equal(back.Key, req.Key) || !bytes.Equal(back.Value, req.Value) {
			t.Fatalf("round-trip request mismatch: %+v vs %+v", back, req)
		}
	})
}

// FuzzFrameV2 parses arbitrary bytes the way the server read loop
// does: seq-framed (every seq bit is the caller's, bit 31 included),
// optionally a batch of packed sub-ops.
func FuzzFrameV2(f *testing.F) {
	plain, err := encodeRequest(request{Op: OpPut, Version: 5, Key: []byte("k"), Value: []byte("v")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFrameSeq(nil, 1, plain))

	packed, err := encodeBatch([]BatchOp{
		{Op: OpPut, Version: 2, Key: []byte("a"), Value: []byte("x")},
		{Op: OpDel, Version: 2, Key: []byte("b")},
	})
	if err != nil {
		f.Fatal(err)
	}
	batch, err := encodeRequest(request{Op: OpBatch, Version: 2, Value: packed})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(appendFrameSeq(nil, 1<<31|3, batch))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 && binary.LittleEndian.Uint32(data) > fuzzFrameCap {
			return
		}
		seq, body, err := readFrameSeq(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if again := appendFrameSeq(nil, seq, body); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("frame re-encodes as %x, read from %x", again, data[:len(again)])
		}
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		if req.Op == OpBatch {
			subs, err := decodeBatch(req.Value, int(req.Version))
			if err != nil {
				return
			}
			for _, sub := range subs {
				enc, err := encodeRequest(sub)
				if err != nil {
					t.Fatalf("re-encoding decoded sub-op failed: %v", err)
				}
				back, err := decodeRequest(enc)
				if err != nil {
					t.Fatalf("sub-op round trip failed: %v", err)
				}
				if back.Op != sub.Op || !bytes.Equal(back.Key, sub.Key) {
					t.Fatalf("sub-op round-trip mismatch")
				}
			}
		}
		enc, err := encodeRequest(req)
		if err != nil {
			t.Fatalf("re-encoding a decoded request failed: %v", err)
		}
		if _, err := decodeRequest(enc); err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
	})
}
