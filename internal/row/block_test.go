package row

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// blockTypes are the column types of blockRows.
var blockTypes = []Type{TypeInt, TypeFloat, TypeString, TypeBool, TypeString}

func blockRows(n, base int) []Row {
	out := make([]Row, n)
	for i := range out {
		out[i] = Row{
			Int(int64(base + i)),
			Float(float64(i) / 3),
			String_("v" + string(rune('a'+i%26))),
			Bool(i%2 == 0),
			NullOf(TypeString),
		}
	}
	return out
}

// encodeBlock packs rows into one compressed block frame.
func encodeBlock(rows []Row) []byte {
	var enc BlockEncoder
	enc.EnableColumnar(blockTypes, true)
	for _, r := range rows {
		enc.Append(r)
	}
	return enc.Finish()
}

// legacyV1Frame hand-builds a retired v1 per-row frame: a length word
// without the block flag, then one binary row record.
func legacyV1Frame(r Row) []byte { return AppendBinary(nil, r) }

// legacyV2Frame hand-builds a retired v2 row block: the flagged length
// word, version 2, flags, row count, then length-prefixed row records.
func legacyV2Frame(rows []Row) []byte {
	f := []byte{0, 0, 0, 0, 2, 0}
	f = binary.LittleEndian.AppendUint32(f, uint32(len(rows)))
	for _, r := range rows {
		f = AppendBinary(f, r)
	}
	binary.LittleEndian.PutUint32(f, blockFlag|uint32(len(f)-4))
	return f
}

func TestBlockEncodeDecodeRoundTrip(t *testing.T) {
	rows := blockRows(37, 100)
	var enc BlockEncoder
	enc.EnableColumnar(blockTypes, true)
	for _, r := range rows {
		enc.Append(r)
	}
	if enc.Rows() != len(rows) {
		t.Fatalf("encoder rows = %d", enc.Rows())
	}
	frame := enc.Finish()
	if frame == nil || frame[4] != WireProtoCol {
		t.Fatal("Finish did not produce a v3 block frame")
	}
	if enc.Rows() != 0 || enc.Len() != 0 {
		t.Fatal("encoder not detached after Finish")
	}
	var dec BlockDecoder
	got := NewColBatch(nil)
	n, err := dec.DecodeBatch(frame, got, blockTypes)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(rows) {
		t.Fatalf("decoded rows = %d", n)
	}
	for i, r := range got.Rows(nil) {
		if !r.Equal(rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, r, rows[i])
		}
	}
	if _, err := dec.DecodeBatch(frame, got, blockTypes[:4]); err == nil {
		t.Fatal("DecodeBatch accepted a frame whose columns disagree with the types")
	}
}

func TestBlockEncoderEmptyFinish(t *testing.T) {
	var enc BlockEncoder
	if f := enc.Finish(); f != nil {
		t.Fatalf("empty Finish = %v", f)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Append before EnableColumnar did not panic")
		}
	}()
	enc.Append(blockRows(1, 0)[0])
}

func TestBlockDecoderRejectsCorruptFrames(t *testing.T) {
	frame := encodeBlock(blockRows(1, 0))
	mut := func(f func(c []byte) []byte) []byte { return f(append([]byte{}, frame...)) }
	cases := map[string][]byte{
		"short":       frame[:3],
		"not-a-block": mut(func(c []byte) []byte { c[3] &^= 0x80; return c }),
		"bad-length":  append(append([]byte{}, frame...), 0xff),
		"bad-version": mut(func(c []byte) []byte { c[4] = 9; return c }),
		"lying-rows":  mut(func(c []byte) []byte { c[6]++; return c }),
	}
	var dec BlockDecoder
	for name, c := range cases {
		if _, err := dec.DecodeBatch(c, NewColBatch(nil), blockTypes); err == nil {
			t.Errorf("%s: corrupt frame decoded cleanly", name)
		}
	}
}

// TestReaderRejectsLegacyFrames feeds the retired framings — a v1 per-row
// frame and a v2 row block, built by hand — to every frame decoder: each
// must fail with an error naming the unsupported frame, never mis-read
// or panic.
func TestReaderRejectsLegacyFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"v1", legacyV1Frame(blockRows(1, 0)[0]), "unsupported v1 row frame"},
		{"v2", legacyV2Frame(blockRows(3, 0)), "unsupported block frame version 2"},
	}
	for _, c := range cases {
		check := func(path string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s via %s: err = %v, want %q", c.name, path, err, c.want)
			}
		}
		_, err := NewReader(bytes.NewReader(c.frame)).Read()
		check("Reader.Read", err)
		_, err = NewReader(bytes.NewReader(c.frame)).ReadColBatch(NewColBatch(nil), blockTypes)
		check("Reader.ReadColBatch", err)
		var dec BlockDecoder
		_, err = dec.DecodeBatch(c.frame, NewColBatch(nil), blockTypes)
		check("BlockDecoder.DecodeBatch", err)
		_, err = ReadRawFrame(bytes.NewReader(c.frame), nil)
		check("ReadRawFrame", err)

		// Behind a valid frame, the v3 rows are served and the legacy
		// frame still fails.
		stream := append(encodeBlock(blockRows(2, 0)), c.frame...)
		rd := NewReader(bytes.NewReader(stream))
		for i := 0; i < 2; i++ {
			if _, err := rd.Read(); err != nil {
				t.Fatalf("%s: v3 row %d: %v", c.name, i, err)
			}
		}
		_, err = rd.Read()
		check("Reader.Read after a v3 frame", err)
	}
}

// TestReaderBytesCreditsBlockOnLastRow pins the flow-control contract: a
// block's wire bytes count only once its last row is served.
func TestReaderBytesCreditsBlockOnLastRow(t *testing.T) {
	rows := blockRows(4, 0)
	frame := encodeBlock(rows)
	rd := NewReader(bytes.NewReader(frame))
	for i := 0; i < len(rows)-1; i++ {
		if _, err := rd.Read(); err != nil {
			t.Fatal(err)
		}
		if rd.Bytes() != 0 {
			t.Fatalf("credited %d bytes after %d of %d rows", rd.Bytes(), i+1, len(rows))
		}
	}
	if _, err := rd.Read(); err != nil {
		t.Fatal(err)
	}
	if rd.Bytes() != int64(len(frame)) {
		t.Fatalf("Bytes() = %d after last row, want %d", rd.Bytes(), len(frame))
	}
}

func TestReaderReadBlockBatches(t *testing.T) {
	var wire bytes.Buffer
	rows := blockRows(10, 0)
	wire.Write(encodeBlock(rows))
	single := blockRows(1, 99)[0]
	wire.Write(encodeBlock([]Row{single}))

	rd := NewReader(&wire)
	batch, err := rd.ReadBlock(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(rows) {
		t.Fatalf("first batch = %d rows, want %d", len(batch), len(rows))
	}
	batch, err = rd.ReadBlock(batch[:0])
	if err != nil || len(batch) != 1 || !batch[0].Equal(single) {
		t.Fatalf("one-row batch = %v (err %v)", batch, err)
	}
	if _, err := rd.ReadBlock(nil); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}
}

// TestBlocksRoundTripThroughDiskFile writes block frames to a file the way
// the sender's spill path does (raw frame bytes, one write per block) and
// re-reads them byte-identical, both frame-aligned (ReadRawFrame, the
// spill replay) and through the frame reader.
func TestBlocksRoundTripThroughDiskFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	var frames [][]byte
	for b := 0; b < 5; b++ {
		rows := blockRows(50+b, b*1000)
		want = append(want, rows...)
		frame := encodeBlock(rows)
		frames = append(frames, append([]byte(nil), frame...))
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, bytes.Join(frames, nil)) {
		t.Fatal("spill file is not the byte-identical concatenation of the frames")
	}
	src := bytes.NewReader(raw)
	for i, want := range frames {
		got, err := ReadRawFrame(src, nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("raw frame %d: %d bytes (err %v), want %d", i, len(got), err, len(want))
		}
	}
	if _, err := ReadRawFrame(src, nil); err != io.EOF {
		t.Fatalf("raw end err = %v", err)
	}
	rd := NewReader(bytes.NewReader(raw))
	for i, w := range want {
		got, err := rd.Read()
		if err != nil || !got.Equal(w) {
			t.Fatalf("row %d after disk round-trip = %v (err %v), want %v", i, got, err, w)
		}
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("end err = %v", err)
	}
}

// failingReader serves its data, then fails with err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadRawFrameErrors pins ReadRawFrame's end-of-input contract: only
// io.EOF at a frame boundary is a clean end. A read failure at a boundary
// or inside a frame is returned as is, and input that stops mid-frame is
// io.ErrUnexpectedEOF — the spill replay must never mistake a failed read
// for the end of the spool.
func TestReadRawFrameErrors(t *testing.T) {
	frame := encodeBlock(blockRows(3, 0))
	errBoom := errors.New("disk gone")
	cases := []struct {
		name string
		src  io.Reader
		want error
	}{
		{"eof-at-boundary", bytes.NewReader(frame), io.EOF},
		{"error-at-boundary", &failingReader{data: frame, err: errBoom}, errBoom},
		{"error-in-header", &failingReader{data: append(append([]byte{}, frame...), frame[:2]...), err: errBoom}, errBoom},
		{"error-in-body", &failingReader{data: append(append([]byte{}, frame...), frame[:9]...), err: errBoom}, errBoom},
		{"eof-in-body", bytes.NewReader(append(append([]byte{}, frame...), frame[:9]...)), io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		got, err := ReadRawFrame(c.src, nil)
		if err != nil || !bytes.Equal(got, frame) {
			t.Fatalf("%s: first frame: %d bytes, err %v", c.name, len(got), err)
		}
		if _, err := ReadRawFrame(c.src, nil); !errors.Is(err, c.want) {
			t.Errorf("%s: second read err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestBlockBufferPoolReuse(t *testing.T) {
	b := NewBlockBuffer()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not empty: %d", len(b))
	}
	b = append(b, 1, 2, 3)
	RecycleBlockBuffer(b)
	// A recycled buffer must come back empty (the pool may also hand out a
	// fresh one; either way the contract is len==0).
	b2 := NewBlockBuffer()
	if len(b2) != 0 {
		t.Fatalf("reused buffer not reset: %d", len(b2))
	}
	RecycleBlockBuffer(b2)
}
