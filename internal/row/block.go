package row

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// The streaming transfer's wire (paper §3). After the schema header
// (WriteSchema), a stream is a sequence of block frames, each carrying
// ~BlockTargetRows rows column-major in the v3 columnar layout
// (colblock.go), and ends with the explicit end-of-stream frame (WriteEOS).
// Block frames amortize the per-row costs of the transfer: one length
// word, one channel hand-off, one spool entry, and one disk write cover a
// whole block instead of one row.
//
// Every frame opens with
//
//	uint32  blockFlag | n   (the top bit marks a block frame; the low 31
//	                         bits are the byte count that follows this word)
//	uint8   version         (WireProtoCol)
//
// and every decoder checks both: a length word without the flag (the
// retired v1 per-row frames) or another version byte (the retired v2 row
// blocks) is rejected with an error naming the unsupported frame.

const (
	blockFlag = uint32(1) << 31

	// BlockTargetRows and BlockTargetBytes are the default flush budgets:
	// a block is emitted when it reaches either. The row budget IS the
	// engine's batch granularity (DefaultBatchSize), so one pipeline batch
	// fills exactly one wire block; ~64 KB keeps a block inside a few
	// socket buffers. The byte budget is counted in uncompressed v3 bytes
	// (BlockEncoder.Len).
	BlockTargetRows  = DefaultBatchSize
	BlockTargetBytes = 64 << 10
)

// MaxBlockSize bounds one block frame, guarding corrupt length words.
const MaxBlockSize = 128 << 20

// MaxFrameSize bounds the stream's schema header, guarding a corrupt
// length prefix.
const MaxFrameSize = 64 << 20

// blockBufPool recycles block buffers across frames. Buffers are handed
// out by NewBlockBuffer and returned by RecycleBlockBuffer once the frame
// has left the process (written to a socket or spill file) — callers that
// retain frames (the §6 replay spool) simply never return them.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, BlockTargetBytes+4<<10)
		return &b
	},
}

// NewBlockBuffer returns an empty, pooled byte buffer sized for one block.
func NewBlockBuffer() []byte {
	return (*blockBufPool.Get().(*[]byte))[:0]
}

// RecycleBlockBuffer returns a buffer obtained from NewBlockBuffer (or a
// finished block frame built on one) to the pool. The caller must not
// touch the slice afterwards. Undersized buffers are dropped rather than
// pooled, so the pool only ever hands out block-capacity buffers.
func RecycleBlockBuffer(b []byte) {
	if cap(b) < BlockTargetBytes {
		return
	}
	blockBufPool.Put(&b)
}

// frameLen validates a frame's length word and returns the byte count
// that follows it.
func frameLen(word uint32) (int, error) {
	if word&blockFlag == 0 {
		return 0, fmt.Errorf("row: unsupported v1 row frame (length word %#x lacks the block flag)", word)
	}
	n := int(word &^ blockFlag)
	if n == 0 || n > MaxBlockSize {
		return 0, fmt.Errorf("row: bad block frame length %d", n)
	}
	return n, nil
}

// BlockEncoder stages rows column-major and packs them into one v3 block
// frame built on a pooled buffer. EnableColumnar sets the column types and
// must come first; append rows until Rows()/Len() hit the caller's budget,
// then Finish to take the frame and start the next block.
type BlockEncoder struct {
	compress bool
	types    []Type
	col      *ColBatch // staged rows; nil until EnableColumnar

	// fixed is the uncompressed frame size of zero rows: length word,
	// header and the per-column section headers. rowBytes is the raw size
	// of one row's fixed-width slots; strBytes sums the raw size of every
	// staged VARCHAR slot.
	fixed, rowBytes, strBytes int
}

// EnableColumnar initialises the encoder for the given column types,
// discarding anything staged. With compress false every column keeps its
// raw encoding (the ablation grid's uncompressed arm). An append before
// the first call panics.
func (e *BlockEncoder) EnableColumnar(types []Type, compress bool) {
	e.compress, e.types = compress, types
	e.col = NewColBatch(types)
	e.fixed = 4 + colTailLen + colSectionLen*len(types)
	e.rowBytes, e.strBytes = 0, 0
	for _, t := range types {
		switch t {
		case TypeInt, TypeFloat:
			e.rowBytes += 8
		case TypeBool:
			e.rowBytes++
		}
	}
}

// staging returns the batch appends land in.
func (e *BlockEncoder) staging() *ColBatch {
	if e.col == nil {
		panic("row: BlockEncoder append before EnableColumnar")
	}
	return e.col
}

// countStrings adds the raw size of the VARCHAR slots staged from
// physical row `from` on.
func (e *BlockEncoder) countStrings(from int) {
	for c, t := range e.types {
		if t != TypeString {
			continue
		}
		v := e.col.Col(c)
		for p := from; p < v.Len(); p++ {
			if v.Null(p) {
				e.strBytes++ // uvarint(0) placeholder
				continue
			}
			n := len(v.Bytes(p))
			e.strBytes += uvarintLen(uint64(n)) + n
		}
	}
}

// Append stages one row.
func (e *BlockEncoder) Append(r Row) {
	st := e.staging()
	from := st.FullLen()
	st.AppendRow(r)
	e.countStrings(from)
}

// AppendBatchRow stages physical row p of a column-major batch straight
// off its vectors — the sender's path when a batch's rows fan out over
// several targets — with no per-row Value materialization.
func (e *BlockEncoder) AppendBatchRow(b *ColBatch, p int) {
	st := e.staging()
	from := st.FullLen()
	for c := 0; c < b.NumCols(); c++ {
		st.Col(c).AppendFrom(b.Col(c), p)
	}
	st.SetFullLen(from + 1)
	e.countStrings(from)
}

// AppendBatch stages every live row of a column-major batch — the
// sender's zero-pivot path when one target consumes whole batches.
func (e *BlockEncoder) AppendBatch(b *ColBatch) {
	st := e.staging()
	from := st.FullLen()
	rows := b.Len()
	for c := 0; c < b.NumCols(); c++ {
		src, dst := b.Col(c), st.Col(c)
		for si := 0; si < rows; si++ {
			dst.AppendFrom(src, b.SelPos(si))
		}
	}
	st.SetFullLen(from + rows)
	e.countStrings(from)
}

// Rows returns the number of rows in the current block.
func (e *BlockEncoder) Rows() int {
	if e.col == nil {
		return 0
	}
	return e.col.FullLen()
}

// Len returns the current block's uncompressed size for flush budgeting:
// exactly len(AppendColBlock(nil, staged, false)), computed without
// encoding (0 with nothing staged).
func (e *BlockEncoder) Len() int {
	rows := e.Rows()
	if rows == 0 {
		return 0
	}
	n := e.fixed + rows*e.rowBytes + e.strBytes
	for c := range e.types {
		if e.col.Col(c).HasNulls() {
			n += (rows + 63) / 64 * 8 // the column's null bitmap
		}
	}
	return n
}

// RawBytes returns the current block's pre-compression size (Len); the
// sender reads it just before Finish for its raw-vs-wire accounting.
func (e *BlockEncoder) RawBytes() int { return e.Len() }

// Finish seals and returns the block frame, transferring ownership to the
// caller (recycle it with RecycleBlockBuffer once it has left the
// process). It returns nil when no rows were appended.
func (e *BlockEncoder) Finish() []byte {
	if e.Rows() == 0 {
		return nil
	}
	frame := AppendColBlock(NewBlockBuffer(), e.col, e.compress)
	e.col.Reset(e.types)
	e.strBytes = 0
	return frame
}

// BlockDecoder decodes whole block frames into column-major batches.
type BlockDecoder struct{}

// DecodeBatch decodes one whole block frame (length word included) into
// dst and checks its columns against the stream's column types. It
// returns the row count.
func (d *BlockDecoder) DecodeBatch(frame []byte, dst *ColBatch, types []Type) (int, error) {
	n, err := DecodeColBlock(frame, dst)
	if err != nil {
		return 0, err
	}
	if err := colTypesMatch(dst, types); err != nil {
		return 0, err
	}
	return n, nil
}

// ReadRawFrame reads one whole block frame off r without decoding its
// columns, appended to buf (length word included). It returns io.EOF only
// when r ends cleanly at a frame boundary; a frame cut short returns
// io.ErrUnexpectedEOF, and every other read error is returned as is. The
// sender's spill replay uses it to re-send spilled bytes frame-aligned,
// which the credit window requires.
func ReadRawFrame(r io.Reader, buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return nil, err
	}
	n, err := frameLen(binary.LittleEndian.Uint32(buf[start:]))
	if err != nil {
		return nil, err
	}
	body := len(buf)
	buf = append(buf, make([]byte, n)...)
	if _, err := io.ReadFull(r, buf[body:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if _, err := colHeader(buf[body:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Reader decodes a stream of block frames from an io.Reader. A frame is
// read off the wire in one I/O operation into a reused buffer. Columnar
// consumers take it whole with ReadColBatch, with no row
// materialization; row consumers (Read, ReadBlock) are served off one
// decode of the frame.
type Reader struct {
	r     *bufio.Reader
	buf   []byte
	nread int64

	// requireEOS makes a bare io.EOF an error: the stream must end with the
	// explicit end-of-stream frame (WriteEOS). See RequireEOS.
	requireEOS bool

	// pending frame: the staged tail (aliasing buf — valid until the next
	// frame is read, i.e. until this one is fully served), the rows still
	// to serve, and the wire size to credit to nread once the last of them
	// has been consumed. The row-path reads decode the tail lazily into
	// colDec and serve rows off the batch; ReadColBatch takes an untouched
	// frame whole, zero-pivot.
	colTail    []byte
	blockRows  int
	blockWire  int64
	colDec     *ColBatch
	colDecoded bool
	colServed  int
}

// Bytes returns the wire bytes of fully consumed frames (headers
// included); the streaming transfer's flow control is driven by this
// counter. A frame counts only once all of its rows have been served, so
// a slow consumer does not grant credit for rows it has merely buffered.
func (r *Reader) Bytes() int64 { return r.nread }

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// RequireEOS makes the reader demand the explicit end-of-stream frame
// (WriteEOS): a stream that simply stops is then a truncation error, not a
// clean end. Transports where a peer's death closes the connection — which
// reads as EOF and could land exactly on a frame boundary — need this to
// tell completion from a mid-stream failure; readers over files or buffers,
// where EOF is authoritative, do not set it.
func (r *Reader) RequireEOS() { r.requireEOS = true }

// WriteEOS writes the explicit end-of-stream frame: a zero length word,
// which no block frame ever produces. Readers in RequireEOS mode treat it
// as the only clean end of stream.
func WriteEOS(w io.Writer) error {
	var hdr [4]byte
	_, err := w.Write(hdr[:])
	return err
}

// stage reads frames until one with rows to serve is pending.
func (r *Reader) stage() error {
	for r.blockRows == 0 {
		if err := r.nextFrame(); err != nil {
			return err
		}
	}
	return nil
}

// release credits the pending frame once its last row has been served.
func (r *Reader) release() {
	r.nread += r.blockWire
	r.colTail, r.colDecoded = nil, false
}

// Read decodes the next row. It returns io.EOF cleanly at end of stream.
func (r *Reader) Read() (Row, error) {
	if err := r.stage(); err != nil {
		return nil, err
	}
	if err := r.decodeStaged(); err != nil {
		return nil, err
	}
	row := r.colDec.RowAt(r.colServed, nil)
	r.colServed++
	r.blockRows--
	if r.blockRows == 0 {
		r.release()
	}
	return row, nil
}

// decodeStaged decodes the pending frame into the reader's scratch batch,
// once per frame.
func (r *Reader) decodeStaged() error {
	if r.colDecoded {
		return nil
	}
	if r.colDec == nil {
		r.colDec = &ColBatch{}
	}
	rows, err := decodeColTail(r.colTail, r.colDec)
	if err != nil {
		return err
	}
	if rows != r.blockRows {
		return fmt.Errorf("row: columnar frame decoded %d rows, staged %d", rows, r.blockRows)
	}
	r.colDecoded, r.colServed = true, 0
	return nil
}

// ReadBlock appends every remaining row of the current frame to dst and
// returns it. It returns io.EOF cleanly at end of stream. Batch consumers
// (hadoopfmt.BatchRecordReader) use it to amortize per-row call overhead.
func (r *Reader) ReadBlock(dst []Row) ([]Row, error) {
	if err := r.stage(); err != nil {
		return nil, err
	}
	if err := r.decodeStaged(); err != nil {
		return nil, err
	}
	for ; r.blockRows > 0; r.blockRows-- {
		dst = append(dst, r.colDec.RowAt(r.colServed, nil))
		r.colServed++
	}
	r.release()
	return dst, nil
}

// ReadColBatch decodes the next frame into dst, checked against the
// stream's column types, and returns its remaining row count. An
// untouched frame decodes straight into dst — the zero-pivot path — while
// a frame already partially served row-wise (the resume handshake's
// duplicate skip) copies its remaining rows. It returns io.EOF cleanly at
// end of stream, and always consumes (and credits) the whole frame.
func (r *Reader) ReadColBatch(dst *ColBatch, types []Type) (int, error) {
	if err := r.stage(); err != nil {
		return 0, err
	}
	if !r.colDecoded {
		rows, err := decodeColTail(r.colTail, dst)
		if err != nil {
			return 0, err
		}
		if err := colTypesMatch(dst, types); err != nil {
			return 0, err
		}
		r.blockRows = 0
		r.release()
		return rows, nil
	}
	if err := colTypesMatch(r.colDec, types); err != nil {
		return 0, err
	}
	dst.Reset(types)
	for ; r.blockRows > 0; r.blockRows-- {
		for c := 0; c < dst.NumCols(); c++ {
			dst.Col(c).AppendFrom(r.colDec.Col(c), r.colServed)
		}
		dst.SetFullLen(dst.FullLen() + 1)
		r.colServed++
	}
	r.release()
	return dst.Len(), nil
}

// colTypesMatch verifies a decoded batch's shape against the stream
// schema's column types — a frame whose columns disagree with the
// handshake is corrupt.
func colTypesMatch(b *ColBatch, types []Type) error {
	if b.NumCols() != len(types) {
		return fmt.Errorf("row: columnar frame has %d columns, schema has %d", b.NumCols(), len(types))
	}
	for i := range types {
		if b.Col(i).Type() != types[i] {
			return fmt.Errorf("row: columnar frame column %d is %s, schema wants %s", i, b.Col(i).Type(), types[i])
		}
	}
	return nil
}

// nextFrame reads one frame into the reused buffer and stages its rows
// for serving.
func (r *Reader) nextFrame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("row: truncated frame header: %w", err)
		}
		if err == io.EOF && r.requireEOS {
			return fmt.Errorf("row: stream ended without end-of-stream frame: %w", io.ErrUnexpectedEOF)
		}
		return err
	}
	word := binary.LittleEndian.Uint32(hdr[:])
	if word == 0 {
		// Explicit end-of-stream frame (WriteEOS).
		return io.EOF
	}
	n, err := frameLen(word)
	if err != nil {
		return err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	tail := r.buf[:n]
	if _, err := io.ReadFull(r.r, tail); err != nil {
		return fmt.Errorf("row: truncated block frame: %w", err)
	}
	rows, err := colHeader(tail)
	if err != nil {
		return err
	}
	if rows == 0 {
		// Empty frame: account it and move on.
		r.nread += int64(4 + n)
		return nil
	}
	r.colTail, r.colDecoded, r.colServed = tail, false, 0
	r.blockRows, r.blockWire = rows, int64(4+n)
	return nil
}

// WriteSchema writes a schema header: it precedes the frames on a stream
// so the receiving side can type its output without out-of-band
// agreement.
func WriteSchema(w io.Writer, s Schema) error {
	enc := []byte(s.String())
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(enc)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(enc)
	return err
}

// ReadSchema reads a schema header written by WriteSchema.
func ReadSchema(r io.Reader) (Schema, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Schema{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > MaxFrameSize {
		return Schema{}, fmt.Errorf("row: schema header of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Schema{}, err
	}
	return ParseSchema(string(buf))
}
