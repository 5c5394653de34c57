package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlml/internal/hadoopfmt"
	"sqlml/internal/ml"
	"sqlml/internal/row"
)

// ingestFingerprint canonicalizes a dataset for cross-run comparison:
// sorted (label, features) lines, independent of partition order.
func ingestFingerprint(d *ml.Dataset) string {
	pts := d.All()
	lines := make([]string, len(pts))
	for i, p := range pts {
		lines[i] = fmt.Sprintf("%v|%v", p.Label, p.Features)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestV3TransferExactlyOnce runs the transfer with compression on and
// off. Both must deliver every row exactly once into the same dataset,
// with blocks coalescing rows. The raw-vs-wire accounting must read a
// ratio above 1 when the per-column encodings bite, and exactly 1 with
// DisableCompression, where every frame is its own raw size.
func TestV3TransferExactlyOnce(t *testing.T) {
	env := newTransferEnv(t)
	var want string
	for _, noCompress := range []bool{false, true} {
		job := fmt.Sprintf("jv3-nocompress-%v", noCompress)
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job}
		cfg := DefaultSenderConfig()
		cfg.DisableCompression = noCompress
		d, stats := env.runTransfer(t, job, 2, 2, 120, f, cfg)
		checkExactlyOnce(t, d, 2, 120)
		fp := ingestFingerprint(d)
		if want == "" {
			want = fp
		} else if fp != want {
			t.Errorf("DisableCompression=%v: ingested dataset differs from the compressed run", noCompress)
		}
		for _, s := range stats {
			if s.FramesSent >= s.RowsSent {
				t.Errorf("DisableCompression=%v: %d frames for %d rows; blocks should coalesce",
					noCompress, s.FramesSent, s.RowsSent)
			}
			if noCompress && s.RawBytes != s.WireBytes {
				t.Errorf("uncompressed: raw %d ≠ wire %d; a raw frame is its own raw size", s.RawBytes, s.WireBytes)
			}
			if !noCompress && s.RawBytes <= s.WireBytes {
				t.Errorf("compressed: raw %d ≤ wire %d; per-column compression absent", s.RawBytes, s.WireBytes)
			}
		}
	}
}

// failingSpill wraps a spill file whose reads fail once left bytes have
// been read — a disk error in the middle of the spill replay.
type failingSpill struct {
	*os.File
	left int
}

var errSpillRead = errors.New("spill read failed")

func (f *failingSpill) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errSpillRead
	}
	if len(p) > f.left {
		p = p[:f.left]
	}
	n, err := f.File.Read(p)
	f.left -= n
	return n, err
}

// TestSpillReplayReadErrorFailsChannel pins that a spill file failing
// mid-replay fails the channel: the frames before the failure reach the
// reader, but the end-of-stream frame must not follow them, or the reader
// would commit a split missing every spilled frame after the error.
func TestSpillReplayReadErrorFailsChannel(t *testing.T) {
	local, remote := net.Pipe()
	cfg := DefaultSenderConfig()
	cfg.BufferSize = 64 // flush each frame as it is replayed
	cfg.SpillWait = time.Millisecond
	cfg.SpillDir = t.TempDir()
	cfg.DialTimeout = 200 * time.Millisecond
	tc := &targetChannel{
		conn:    local,
		w:       bufio.NewWriterSize(local, cfg.BufferSize),
		queue:   make(chan []byte), // no writer yet: every enqueue spills
		done:    make(chan error, 1),
		credits: make(chan int, 1024),
		acks:    make(chan error, 1),
		cfg:     cfg,
	}
	types := row.SchemaTypes(streamSchema())
	var frames [][]byte
	for f := 0; f < 3; f++ {
		var enc row.BlockEncoder
		enc.EnableColumnar(types, true)
		for _, r := range genRows(f, 40) {
			enc.Append(r)
		}
		frame := enc.Finish()
		frames = append(frames, frame)
		if err := tc.enqueue(frame, 40, int64(len(frame))); err != nil {
			t.Fatal(err)
		}
	}
	if tc.spilledBytes == 0 {
		t.Fatal("frames were not spilled")
	}
	tc.spill = &failingSpill{File: tc.spill.(*os.File), left: len(frames[0])}

	received := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(remote)
		received <- b
	}()
	go tc.writeLoop()
	close(tc.queue)
	err := <-tc.done
	if cerr := tc.cleanup(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, errSpillRead) {
		t.Fatalf("channel outcome = %v, want the spill read error", err)
	}
	got := <-received
	if !bytes.Equal(got, frames[0]) {
		t.Fatalf("reader received %d bytes, want exactly the first frame (%d bytes) and no end-of-stream frame",
			len(got), len(frames[0]))
	}
}

// drainSplits consumes every split of f batch-wise without retaining rows,
// so the receiving side contributes no lasting heap growth.
func drainSplits(f *InputFormat) error {
	splits, err := f.Splits(0)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(splits))
	for i, sp := range splits {
		wg.Add(1)
		go func(i int, sp hadoopfmt.InputSplit) {
			defer wg.Done()
			rr, err := f.Open(sp, nil)
			if err != nil {
				errs[i] = err
				return
			}
			defer func() {
				if cerr := rr.Close(); cerr != nil && errs[i] == nil {
					errs[i] = cerr
				}
			}()
			var buf []row.Row
			for {
				batch, ok, err := hadoopfmt.ReadBatch(rr, buf[:0])
				if err != nil {
					errs[i] = err
					return
				}
				if !ok {
					return
				}
				buf = batch
			}
		}(i, sp)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// probeIterator serves rows and fires probe once, right before row `at` —
// from the sender's own consume goroutine, so the probe observes the
// sender mid-transfer with most of the stream already encoded.
type probeIterator struct {
	rows  []row.Row
	i     int
	at    int
	probe func()
}

func (p *probeIterator) Next() (row.Row, bool, error) {
	if p.i == p.at && p.probe != nil {
		p.probe()
		p.probe = nil
	}
	if p.i >= len(p.rows) {
		return nil, false, nil
	}
	r := p.rows[p.i]
	p.i++
	return r, true, nil
}

// liveHeap forces a full GC and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSenderMemoryBoundedWithoutReplay pins the pooling contract: with the
// replay spool disabled, block buffers recycle through the pool and the
// sender's residency stays O(blocks in flight) per target instead of
// O(stream). The run with replay enabled — which must retain every frame
// until the ACK — serves as the yardstick. Live heap is probed with a
// forced GC from inside the sender's input iterator near the end of the
// stream (when the spool is near-full), so transient decode garbage
// cannot inflate the measurement.
func TestSenderMemoryBoundedWithoutReplay(t *testing.T) {
	env := newTransferEnv(t)
	const numRows = 400_000
	rows := genRows(0, numRows)
	// Pool buffers survive the probe's GC; keep their count small and
	// deterministic with a short queue.
	const queueFrames = 8

	runOnce := func(job string, disable bool) uint64 {
		f := &InputFormat{CoordAddr: env.coordAddr, Job: job}
		drained := make(chan error, 1)
		go func() {
			<-env.launched
			drained <- drainSplits(f)
		}()
		cfg := DefaultSenderConfig()
		cfg.DisableReplay = disable
		cfg.QueueFrames = queueFrames
		base := liveHeap()
		var atProbe uint64
		it := &probeIterator{rows: rows, at: numRows - 1, probe: func() { atProbe = liveHeap() }}
		if _, err := Send(SendRequest{
			CoordAddr: env.coordAddr, Job: job, Command: "svm",
			Worker: 0, NumWorkers: 1, K: 1,
			Node: env.topo.Node(1), Topo: env.topo,
			Schema: streamSchema(), Input: it,
			Config: cfg,
		}); err != nil {
			t.Fatal(err)
		}
		if err := <-drained; err != nil {
			t.Fatal(err)
		}
		if atProbe < base {
			return 0
		}
		return atProbe - base
	}

	replayOn := runOnce("jresident-replay", false)
	replayOff := runOnce("jresident-noreplay", true)
	if replayOff*2 > replayOn {
		t.Errorf("live heap growth without replay = %d B, with replay = %d B; recycling should keep it well under half",
			replayOff, replayOn)
	}
}
