package main

import (
	"time"

	"sqlml/internal/cluster"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// timedFormat decorates a hadoopfmt.InputFormat: every reader it opens
// records one span (open to close) with the time spent inside reader
// calls. The reader wrappers expose exactly the optional interfaces of
// the reader they wrap — ml.Ingest type-asserts ColBatchRecordReader, so a
// wrapper that hid NextColBatch would silently move ingest onto the row
// path and measure another program.
type timedFormat struct {
	hadoopfmt.InputFormat
	tr       *tracer
	pipeline int64
	parent   int64
}

// Open implements hadoopfmt.InputFormat.
func (f *timedFormat) Open(split hadoopfmt.InputSplit, node *cluster.Node) (hadoopfmt.RecordReader, error) {
	sp := f.tr.start(f.pipeline, f.parent, "hadoopfmt.split")
	t0 := time.Now()
	rr, err := f.InputFormat.Open(split, node)
	if err != nil {
		sp.end(nil)
		return nil, err
	}
	return wrapReader(rr, sp, time.Since(t0)), nil
}

func wrapReader(rr hadoopfmt.RecordReader, sp *openSpan, openWait time.Duration) hadoopfmt.RecordReader {
	t := &timedReader{rr: rr, sp: sp, wait: openWait}
	br, isBatch := rr.(hadoopfmt.BatchRecordReader)
	cr, isCol := rr.(hadoopfmt.ColBatchRecordReader)
	switch {
	case isBatch && isCol:
		return &timedBatchColReader{timedReader: t, br: br, cr: cr}
	case isBatch:
		return &timedBatchReader{timedReader: t, br: br}
	case isCol:
		return &timedColReader{timedReader: t, cr: cr}
	default:
		return t
	}
}

// timedReader is the plain RecordReader wrapper and the base of the
// batch-capable ones. Only the reader's own goroutine touches the counts
// until Close publishes them on the span.
type timedReader struct {
	rr                 hadoopfmt.RecordReader
	sp                 *openSpan
	wait               time.Duration
	rowCalls, colCalls int64
	closed             bool
}

func (r *timedReader) Next() (row.Row, bool, error) {
	t0 := time.Now()
	x, ok, err := r.rr.Next()
	r.wait += time.Since(t0)
	r.rowCalls++
	return x, ok, err
}

// Close closes the wrapped reader and ends the split span; the close
// handshake counts as reader time.
func (r *timedReader) Close() error {
	t0 := time.Now()
	err := r.rr.Close()
	r.wait += time.Since(t0)
	if !r.closed {
		r.closed = true
		r.sp.end(map[string]int64{
			"wait_ns":   int64(r.wait),
			"row_calls": r.rowCalls,
			"col_calls": r.colCalls,
		})
	}
	return err
}

func (r *timedReader) nextBatch(br hadoopfmt.BatchRecordReader, buf []row.Row) ([]row.Row, bool, error) {
	t0 := time.Now()
	b, ok, err := br.NextBatch(buf)
	r.wait += time.Since(t0)
	r.rowCalls++
	return b, ok, err
}

func (r *timedReader) nextColBatch(cr hadoopfmt.ColBatchRecordReader, dst *row.ColBatch) (int, bool, error) {
	t0 := time.Now()
	n, ok, err := cr.NextColBatch(dst)
	r.wait += time.Since(t0)
	r.colCalls++
	return n, ok, err
}

type timedBatchReader struct {
	*timedReader
	br hadoopfmt.BatchRecordReader
}

func (r *timedBatchReader) NextBatch(buf []row.Row) ([]row.Row, bool, error) {
	return r.nextBatch(r.br, buf)
}

type timedColReader struct {
	*timedReader
	cr hadoopfmt.ColBatchRecordReader
}

func (r *timedColReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	return r.nextColBatch(r.cr, dst)
}

type timedBatchColReader struct {
	*timedReader
	br hadoopfmt.BatchRecordReader
	cr hadoopfmt.ColBatchRecordReader
}

func (r *timedBatchColReader) NextBatch(buf []row.Row) ([]row.Row, bool, error) {
	return r.nextBatch(r.br, buf)
}

func (r *timedBatchColReader) NextColBatch(dst *row.ColBatch) (int, bool, error) {
	return r.nextColBatch(r.cr, dst)
}
