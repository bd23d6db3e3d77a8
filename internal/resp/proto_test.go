package resp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// TestInlineLineLimit: an inline line is accepted up to maxInlineLen
// bytes, well past bufio's 4 KB buffer, and refused beyond it with that
// limit in the message.
func TestInlineLineLimit(t *testing.T) {
	for _, size := range []int{4100, 60000, maxInlineLen} {
		value := strings.Repeat("v", size-len("SET k "))
		args, err := NewReader(strings.NewReader("SET k " + value + "\r\n")).ReadCommand()
		if err != nil {
			t.Fatalf("%d B inline line: %v", size, err)
		}
		if len(args) != 3 || string(args[0]) != "SET" || string(args[1]) != "k" || string(args[2]) != value {
			t.Fatalf("%d B inline line parsed as %d args", size, len(args))
		}
	}
	line := "SET k " + strings.Repeat("v", maxInlineLen+1-len("SET k ")) + "\r\n"
	_, err := NewReader(strings.NewReader(line)).ReadCommand()
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "65536") {
		t.Fatalf("%d B inline line: err = %v, want a protocol error naming 65536", maxInlineLen+1, err)
	}
}

// TestReadCommandArgsAreViews: the args of one command stay intact while
// it runs, even when its payloads outgrow the Reader's buffer, and the
// next command reuses the buffer.
func TestReadCommandArgsAreViews(t *testing.T) {
	big := bytes.Repeat([]byte("b"), 60000)
	var stream []byte
	stream = AppendCommand(stream, []byte("MSET"), []byte("a"), []byte("1"), []byte("b"), big)
	stream = AppendCommand(stream, []byte("GET"), []byte("a"))
	r := NewReader(bytes.NewReader(stream))
	args, err := r.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 5 || string(args[1]) != "a" || string(args[2]) != "1" || string(args[3]) != "b" || !bytes.Equal(args[4], big) {
		t.Fatalf("MSET parsed as %q", args[:4])
	}
	if cap(args[1]) != 1 {
		t.Fatalf("an arg's capacity is %d, want its length: an append to it would write over the next", cap(args[1]))
	}
	args, err = r.ReadCommand()
	if err != nil || len(args) != 2 || string(args[0]) != "GET" || string(args[1]) != "a" {
		t.Fatalf("GET parsed as %q, %v", args, err)
	}
}

// loop repeats one byte stream forever.
type loop struct {
	data []byte
	off  int
}

func (l *loop) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestReadCommandAllocatesNothing: once warm, a Reader parses a pipelined
// stream of SETs of 128 B values and GETs, and each command name
// resolves, without a heap allocation.
func TestReadCommandAllocatesNothing(t *testing.T) {
	value := bytes.Repeat([]byte("x"), 128)
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = AppendCommand(stream, []byte("SET"), []byte("resp/00000"), value)
	}
	for i := 0; i < 8; i++ {
		stream = AppendCommand(stream, []byte("GET"), []byte("resp/00000"))
	}
	r := NewReader(&loop{data: stream})
	if allocs := testing.AllocsPerRun(1000, func() {
		args, err := r.ReadCommand()
		if err != nil {
			t.Fatal(err)
		}
		if name := commandName(args[0]); name != "SET" && name != "GET" {
			t.Fatalf("command name %q", name)
		}
	}); allocs != 0 {
		t.Fatalf("ReadCommand: %v allocs per command, want 0", allocs)
	}
}

// TestWriterAllocatesNothing: the reply headers are formatted into the
// Writer's own scratch.
func TestWriterAllocatesNothing(t *testing.T) {
	w := NewWriter(io.Discard)
	value := bytes.Repeat([]byte("x"), 128)
	for name, write := range map[string]func(){
		"WriteBulk":        func() { w.WriteBulk(value) },
		"WriteInt":         func() { w.WriteInt(-1234567890123) },
		"WriteArrayHeader": func() { w.WriteArrayHeader(1 << 20) },
	} {
		if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
