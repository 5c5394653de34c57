package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"sqlml/internal/core"
	"sqlml/internal/experiments"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/row"
)

// smallScale keeps each test pipeline to a few milliseconds.
var smallScale = experiments.Scale{Users: 60, CartsPerUser: 8}

func newSmallBench(t *testing.T, workload string, seed int64) *bench {
	t.Helper()
	b, err := newBench(workload, seed, smallScale, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.close)
	return b
}

func TestOracleRejectsPerturbedDataset(t *testing.T) {
	b := newSmallBench(t, freshStream, 7)
	o := b.ops[0]
	res, err := core.Run(b.env, o.approach, o.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.want.check(res.Dataset); err != nil {
		t.Fatalf("unperturbed dataset rejected: %v", err)
	}
	pt := &res.Dataset.Parts[0][0]
	for f := range pt.Features {
		saved := pt.Features[f]
		pt.Features[f] += 0.5
		if err := o.want.check(res.Dataset); err == nil {
			t.Errorf("feature %d perturbed by 0.5: check accepted it", f)
		}
		pt.Features[f] = saved
	}
	saved := pt.Label
	pt.Label = 1 - pt.Label
	if err := o.want.check(res.Dataset); err == nil {
		t.Error("flipped label: check accepted it")
	}
	pt.Label = saved
	res.Dataset.Parts[0] = res.Dataset.Parts[0][1:]
	if err := o.want.check(res.Dataset); err == nil {
		t.Error("dropped row: check accepted it")
	}
}

// TestWorkloadsPassOracle runs every workload untraced and traced on the
// default seed and a held-out one: no pipeline fails, every dataset
// matches the oracle, and every cached-reuse lookup is a full-result hit.
func TestWorkloadsPassOracle(t *testing.T) {
	for _, seed := range []int64{7, 1234} {
		for _, w := range workloads {
			b := newSmallBench(t, w, seed)
			tr := newTracer()
			for i, o := range b.ops {
				res, err := b.runChecked(o)
				if err != nil {
					t.Fatalf("%s seed %d op %d untraced: %v", w, seed, i, err)
				}
				if res.Rows == 0 {
					t.Errorf("%s seed %d op %d: empty dataset", w, seed, i)
				}
				pid := int64(i + 1)
				d, hit, _, err := b.tracedPipeline(tr, pid, o)
				if err == nil {
					err = b.verify(o, hit, d)
				}
				if err != nil {
					t.Fatalf("%s seed %d op %d traced: %v", w, seed, i, err)
				}
				v := fromSpans(tr.pipelineSpans(pid))
				if w == cachedReuse && (v["cache.lookups"] != 1 || v["cache.full_hits"] != 1) {
					t.Errorf("%s seed %d op %d: %v lookups, %v full hits", w, seed, i, v["cache.lookups"], v["cache.full_hits"])
				}
			}
		}
	}
}

func TestTracedFreshStreamUsesColBatchPath(t *testing.T) {
	b := newSmallBench(t, freshStream, 7)
	tr := newTracer()
	d, hit, _, err := b.tracedPipeline(tr, 1, b.ops[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.verify(b.ops[0], hit, d); err != nil {
		t.Fatal(err)
	}
	v := fromSpans(tr.pipelineSpans(1))
	if v["hadoopfmt.colbatch_calls"] == 0 || v["hadoopfmt.colbatch_calls"] != v["hadoopfmt.reader_calls"] {
		t.Fatalf("reader calls %v, NextColBatch calls %v: ingest left the columnar path",
			v["hadoopfmt.reader_calls"], v["hadoopfmt.colbatch_calls"])
	}
}

// fakeReader and its extensions let the decorator test build readers
// with each combination of optional interfaces.
type fakeReader struct{}

func (fakeReader) Next() (row.Row, bool, error) { return nil, false, nil }
func (fakeReader) Close() error                 { return nil }

type fakeBatch struct{ fakeReader }

func (fakeBatch) NextBatch(buf []row.Row) ([]row.Row, bool, error) { return buf, false, nil }

type fakeCol struct{ fakeReader }

func (fakeCol) NextColBatch(*row.ColBatch) (int, bool, error) { return 0, false, nil }

type fakeBatchCol struct {
	fakeBatch
	fakeCol
}

func (fakeBatchCol) Next() (row.Row, bool, error) { return nil, false, nil }
func (fakeBatchCol) Close() error                 { return nil }

func TestTimedReaderKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, rr := range []hadoopfmt.RecordReader{fakeReader{}, fakeBatch{}, fakeCol{}, fakeBatchCol{}} {
		w := wrapReader(rr, tr.start(1, 0, "hadoopfmt.split"), 0)
		_, inBatch := rr.(hadoopfmt.BatchRecordReader)
		_, inCol := rr.(hadoopfmt.ColBatchRecordReader)
		_, outBatch := w.(hadoopfmt.BatchRecordReader)
		_, outCol := w.(hadoopfmt.ColBatchRecordReader)
		if inBatch != outBatch || inCol != outCol {
			t.Errorf("%T: batch %v→%v, colbatch %v→%v", rr, inBatch, outBatch, inCol, outCol)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 50},  // overlaps span 2
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], int64(100-40-10); got != want {
		t.Errorf("self time %d, want %d", got, want)
	}
	if self[2] != 30 {
		t.Errorf("leaf self time %d, want 30", self[2])
	}
}

// TestReportsMatchBenchmarkJSON holds both report kinds to the metric
// names and units BENCHMARK.json declares, and the workload list to its
// workloads.
func TestReportsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}

	b := newSmallBench(t, freshStream, 7)
	e2e := endToEndReport(b.loop(100*time.Millisecond), []float64{1})
	layers, err := tracedRun(b, 300*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		want []struct{ Name, Unit string }
		got  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e.Metrics}, {"per_layer", spec.PerLayer, layers.Metrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: report has %d metrics, BENCHMARK.json %d", c.kind, len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s %s: reported %+v (present %v), BENCHMARK.json unit %q", c.kind, m.Name, got, ok, m.Unit)
			}
		}
	}
	if !e2e.Correct || !layers.Correct {
		t.Errorf("correct: end-to-end %v, traced %v", e2e.Correct, layers.Correct)
	}
}
