package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlml/internal/cache"
	"sqlml/internal/cluster"
	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/hadoopfmt"
	"sqlml/internal/jaql"
	"sqlml/internal/mapred"
	"sqlml/internal/ml"
	"sqlml/internal/rewriter"
	"sqlml/internal/row"
	"sqlml/internal/sqlengine"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// span is one traced call into a module: its name, interval (ns since the
// tracer's epoch), the span that caused it, the pipeline it belongs to,
// the heap bytes allocated process-wide during it, and counters.
type span struct {
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent"`
	Pipeline int64            `json:"pipeline"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Alloc    uint64           `json:"alloc_bytes"`
	Attrs    map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; dump writes them out when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type openSpan struct {
	t      *tracer
	s      span
	alloc0 uint64
}

func (t *tracer) start(pipeline, parent int64, name string) *openSpan {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	o := &openSpan{t: t, s: span{ID: id, Parent: parent, Pipeline: pipeline, Name: name}}
	o.alloc0 = allocBytesNow()
	o.s.StartNs = int64(time.Since(t.epoch))
	return o
}

func (o *openSpan) id() int64 { return o.s.ID }

func (o *openSpan) end(attrs map[string]int64) span {
	o.s.EndNs = int64(time.Since(o.t.epoch))
	o.s.Alloc = allocBytesNow() - o.alloc0
	o.s.Attrs = attrs
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// pipelineSpans returns the spans of one pipeline.
func (t *tracer) pipelineSpans(pipeline int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Pipeline == pipeline {
			out = append(out, s)
		}
	}
	return out
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (their union, clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.StartNs
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// layerValues are one traced pipeline's per-layer figures, keyed by
// metric name.
type layerValues map[string]float64

// fromSpans folds a pipeline's spans into layer values: self time and
// allocation per module span, reader wait and conversion time summed
// over the split readers, and the spans' counters (the root span carries
// the cost-model and DFS deltas).
func fromSpans(spans []span) layerValues {
	self := selfTimes(spans)
	v := layerValues{}
	for _, s := range spans {
		dur := s.ms()
		selfMS := float64(self[s.ID]) / 1e6
		alloc := float64(s.Alloc) / mb
		switch s.Name {
		case "pipeline":
			v["trace.pipeline_ms"] += dur
			v["cluster.sim_ms"] += float64(s.Attrs["sim_ns"]) / 1e6
			v["cluster.disk_read_bytes"] += float64(s.Attrs["disk_read_bytes"])
			v["cluster.net_bytes"] += float64(s.Attrs["net_bytes"])
			v["dfs.write_bytes"] += float64(s.Attrs["disk_write_bytes"])
			v["dfs.staging_bytes"] += float64(s.Attrs["staging_bytes"])
		case "sqlengine.prep":
			v["sqlengine.prep_ms"] += selfMS
			v["sqlengine.prep_alloc_mb"] += alloc
			v["sqlengine.rows_out"] += float64(s.Attrs["rows"])
		case "sqlengine.export":
			v["sqlengine.export_ms"] += selfMS
		case "transform.apply":
			v["transform.apply_ms"] += selfMS
			v["transform.apply_alloc_mb"] += alloc
			v["transform.recode_levels"] += float64(s.Attrs["levels"])
		case "stream.send":
			v["stream.send_ms"] += selfMS
			for _, k := range []string{"frames", "wire_bytes", "spilled_bytes", "reconnects", "restarts"} {
				v["stream."+k] += float64(s.Attrs[k])
			}
		case "ml.ingest":
			v["ml.ingest_ms"] += dur
			v["ml.ingest_alloc_mb"] += alloc
		case "hadoopfmt.split":
			wait := float64(s.Attrs["wait_ns"]) / 1e6
			v["hadoopfmt.reader_wait_ms"] += wait
			v["hadoopfmt.reader_calls"] += float64(s.Attrs["row_calls"] + s.Attrs["col_calls"])
			v["hadoopfmt.colbatch_calls"] += float64(s.Attrs["col_calls"])
			v["ml.convert_ms"] += dur - wait
		case "jaql.transform":
			v["jaql.transform_ms"] += selfMS
			v["mapred.tasks"] += float64(s.Attrs["tasks"])
			v["mapred.shuffle_bytes"] += float64(s.Attrs["shuffle_bytes"])
			v["mapred.task_retries"] += float64(s.Attrs["task_retries"])
		case "rewriter.analyze":
			v["rewriter.analyze_ms"] += selfMS
		case "cache.lookup":
			v["cache.lookup_ms"] += selfMS
			v["cache.lookups"]++
			v["cache.full_hits"] += float64(s.Attrs["full_hit"])
		}
	}
	// The cost model charges sender spill as disk writes too.
	v["dfs.write_bytes"] -= v["stream.spilled_bytes"]
	return v
}

// tracedPipeline runs one op as the calls core.Run makes, one layer at a
// time: every layer's output is materialized before the next layer starts,
// so each span's self time belongs to one module. The streaming transfer
// cannot be split (the sender needs a live reader), so stream.send and
// ml.ingest are concurrent siblings.
func (b *bench) tracedPipeline(tr *tracer, pid int64, o op) (*ml.Dataset, cache.HitKind, transformed, error) {
	env := b.env
	root := tr.start(pid, 0, "pipeline")
	cost0 := env.Cost.Stats()
	staged0 := stagingBytes(env)
	var (
		d   *ml.Dataset
		hit = cache.Miss
		out transformed
		err error
	)
	switch o.approach {
	case core.Naive:
		d, out, err = b.tracedNaive(tr, pid, root.id(), o.cfg)
	case core.InSQLStream:
		if o.cfg.Tier == core.CacheFullResult {
			d, hit, out, err = b.tracedCached(tr, pid, root.id(), o.cfg)
		} else {
			d, out, err = b.tracedFresh(tr, pid, root.id(), o.cfg)
		}
	default:
		err = fmt.Errorf("traced run: approach %s not traced", o.approach)
	}
	cost := env.Cost.Stats()
	root.end(map[string]int64{
		"sim_ns":           int64(cost.SimulatedTime - cost0.SimulatedTime),
		"disk_read_bytes":  cost.DiskReadBytes - cost0.DiskReadBytes,
		"disk_write_bytes": cost.DiskWriteBytes - cost0.DiskWriteBytes,
		"net_bytes":        cost.NetBytes - cost0.NetBytes,
		"staging_bytes":    stagingBytes(env) - staged0,
	})
	return d, hit, out, err
}

// transformed is the data a traced pipeline delivered, kept for the
// isolated wire measurement.
type transformed struct {
	schema row.Schema
	rows   func() ([]row.Row, error)
}

func (b *bench) mlOptions(cfg core.PipelineConfig) ml.IngestOptions {
	return ml.IngestOptions{
		LabelCol:       cfg.LabelCol,
		LabelTransform: cfg.LabelTransform,
		NumWorkers:     len(b.env.WorkerIDs),
		Nodes:          b.env.WorkerNodes(),
		Cost:           b.env.Cost,
	}
}

// tracedFresh mirrors core's fresh insql+stream run: prep query and
// registration, transform.Apply, then the streaming transfer into
// ml.Ingest.
func (b *bench) tracedFresh(tr *tracer, pid, root int64, cfg core.PipelineConfig) (*ml.Dataset, transformed, error) {
	e := b.env.Engine
	sp := tr.start(pid, root, "sqlengine.prep")
	prep, err := e.Query(cfg.Query)
	if err != nil {
		return nil, transformed{}, err
	}
	prepTable := fmt.Sprintf("__trace_prep_%d", pid)
	if err := e.RegisterResult(prepTable, prep); err != nil {
		return nil, transformed{}, err
	}
	sp.end(map[string]int64{"rows": int64(prep.NumRows())})
	defer e.DropTable(prepTable)

	sp = tr.start(pid, root, "transform.apply")
	out, err := transform.Apply(e, prepTable, cfg.Spec, nil)
	if err != nil {
		return nil, transformed{}, err
	}
	defer e.DropTable(out.MapTable)
	if err := out.Result.Materialize(); err != nil {
		return nil, transformed{}, err
	}
	levels := 0
	for _, c := range out.Map.Columns() {
		levels += out.Map.Cardinality(c)
	}
	sp.end(map[string]int64{"levels": int64(levels)})

	d, err := b.tracedTransfer(tr, pid, root, cfg, out.Result)
	return d, resultRows(out.Result), err
}

// tracedCached mirrors core's full-result cache hit: analyze the query,
// look it up, run the rewritten query over the cached table, stream it.
func (b *bench) tracedCached(tr *tracer, pid, root int64, cfg core.PipelineConfig) (*ml.Dataset, cache.HitKind, transformed, error) {
	sp := tr.start(pid, root, "rewriter.analyze")
	info, err := rewriter.AnalyzeSQL(b.env.Engine, cfg.Query)
	sp.end(nil)
	if err != nil {
		return nil, cache.Miss, transformed{}, err
	}
	sp = tr.start(pid, root, "cache.lookup")
	h := b.env.Cache.LookupAtMost(info, cfg.Spec, cache.FullResultHit)
	full := int64(0)
	if h.Kind == cache.FullResultHit {
		full = 1
	}
	sp.end(map[string]int64{"full_hit": full})
	if h.Kind != cache.FullResultHit {
		return nil, h.Kind, transformed{}, fmt.Errorf("cache: %s, want %s", h.Kind, cache.FullResultHit)
	}
	sp = tr.start(pid, root, "sqlengine.prep")
	res, err := b.env.Engine.Query(h.RewrittenSQL)
	if err != nil {
		return nil, h.Kind, transformed{}, err
	}
	sp.end(map[string]int64{"rows": int64(res.NumRows())})
	d, err := b.tracedTransfer(tr, pid, root, cfg, res)
	return d, h.Kind, resultRows(res), err
}

// tracedTransfer is runInSQLStream's transfer: the stream_send query over
// the (materialized) result, with ml.Ingest reading the stream through
// the timing decorator.
func (b *bench) tracedTransfer(tr *tracer, pid, root int64, cfg core.PipelineConfig, res *sqlengine.Result) (*ml.Dataset, error) {
	env := b.env
	table := fmt.Sprintf("__trace_send_%d", pid)
	if err := env.Engine.RegisterResult(table, res); err != nil {
		return nil, err
	}
	defer env.Engine.DropTable(table)
	job := fmt.Sprintf("trace-%d", pid)

	type ingestResult struct {
		d   *ml.Dataset
		err error
	}
	done := make(chan ingestResult, 1)
	go func() {
		sp := tr.start(pid, root, "ml.ingest")
		f := &timedFormat{
			InputFormat: &stream.InputFormat{CoordAddr: env.CoordAddr, Job: job, ReceiveBufferSize: env.SenderConfig.BufferSize},
			tr:          tr, pipeline: pid, parent: sp.id(),
		}
		d, err := ml.Ingest(f, b.mlOptions(cfg))
		sp.end(nil)
		done <- ingestResult{d, err}
	}()

	k := cfg.K
	if k <= 0 {
		k = 1
	}
	sp := tr.start(pid, root, "stream.send")
	stats, err := env.Engine.Query(fmt.Sprintf("SELECT * FROM TABLE(stream_send(%s, '%s', '%s', 'svm', %d))", table, env.CoordAddr, job, k))
	if err != nil {
		sp.end(nil)
		return nil, err
	}
	// stream_send's output: one stats row per SQL worker (statsSchema).
	attrs := map[string]int64{}
	cols := map[string]string{"frames_sent": "frames", "wire_bytes": "wire_bytes", "spilled_bytes": "spilled_bytes", "reconnects": "reconnects", "restarts": "restarts"}
	for _, r := range stats.Rows() {
		for i, c := range stats.Schema.Cols {
			if name, ok := cols[c.Name]; ok {
				attrs[name] += r[i].AsInt()
			}
		}
	}
	sp.end(attrs)
	ir := <-done
	return ir.d, ir.err
}

// tracedNaive mirrors core's naive run: prep query, export to the DFS,
// the two Jaql MapReduce jobs, then ml.Ingest over the job output. Like
// core it leaves its staging directory behind (see NOTES.md).
func (b *bench) tracedNaive(tr *tracer, pid, root int64, cfg core.PipelineConfig) (*ml.Dataset, transformed, error) {
	env := b.env
	prepDir := fmt.Sprintf("/staging/trace-naive-%d/prep", pid)
	outDir := fmt.Sprintf("/staging/trace-naive-%d/transformed", pid)

	sp := tr.start(pid, root, "sqlengine.prep")
	res, err := env.Engine.Query(cfg.Query)
	if err != nil {
		return nil, transformed{}, err
	}
	sp.end(map[string]int64{"rows": int64(res.NumRows())})
	sp = tr.start(pid, root, "sqlengine.export")
	if err := env.Engine.ExportToDFS(res, env.FS, prepDir); err != nil {
		return nil, transformed{}, err
	}
	sp.end(nil)

	sp = tr.start(pid, root, "jaql.transform")
	jres, err := jaql.Transform(&jaql.Env{
		Topo:            env.Topo,
		FS:              env.FS,
		Cost:            env.Cost,
		TaskNodes:       env.WorkerIDs,
		JobStartupDelay: env.MRStartupDelay,
		MaxTaskAttempts: env.MaxTaskAttempts,
		TaskFault:       env.TaskFault,
	}, prepDir, res.Schema, cfg.Spec, outDir)
	if err != nil {
		return nil, transformed{}, err
	}
	attrs := map[string]int64{}
	for _, st := range []*mapred.Stats{jres.MapJob, jres.ApplyJob} {
		if st == nil {
			continue
		}
		attrs["tasks"] += int64(st.MapTasks + st.ReduceTasks)
		attrs["shuffle_bytes"] += st.ShuffleBytes
		attrs["task_retries"] += st.TaskRetries
	}
	sp.end(attrs)

	sp = tr.start(pid, root, "ml.ingest")
	f := &timedFormat{InputFormat: mapred.DirFormat(env.FS, jres.OutputPath, jres.Schema), tr: tr, pipeline: pid, parent: sp.id()}
	d, err := ml.Ingest(f, b.mlOptions(cfg))
	sp.end(nil)
	out := transformed{schema: jres.Schema, rows: func() ([]row.Row, error) {
		return readAll(mapred.DirFormat(env.FS, jres.OutputPath, jres.Schema), env.Topo.Node(1))
	}}
	return d, out, err
}

func resultRows(res *sqlengine.Result) transformed {
	return transformed{schema: res.Schema, rows: func() ([]row.Row, error) { return res.Rows(), nil }}
}

// readAll reads every row of an input format, split by split.
func readAll(f hadoopfmt.InputFormat, node *cluster.Node) ([]row.Row, error) {
	splits, err := f.Splits(1)
	if err != nil {
		return nil, err
	}
	var out []row.Row
	for _, s := range splits {
		rr, err := f.Open(s, node)
		if err != nil {
			return nil, err
		}
		for {
			r, ok, err := rr.Next()
			if err != nil {
				rr.Close()
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, r)
		}
		if err := rr.Close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// stagingBytes is the size of everything under /staging on the DFS.
func stagingBytes(env *core.Env) int64 {
	var n int64
	for _, p := range env.FS.List("/staging") {
		if fi, err := env.FS.Stat(p); err == nil {
			n += fi.Size
		}
	}
	return n
}

// isolated measures the layers that core reaches only inside fused
// pipelines, each on its own: the DFS read and text decode of the
// warehouse files, and the v3 wire encode/decode of one pipeline's
// delivered rows at the sender's block budgets.
func (b *bench) isolated(tr *tracer, data transformed) (layerValues, error) {
	v := layerValues{}
	node := b.env.Topo.Node(1)
	tables := []struct {
		path   string
		schema row.Schema
	}{{b.usersPath, datagen.UsersSchema()}, {b.cartsPath, datagen.CartsSchema()}}

	sp := tr.start(0, 0, "dfs.read")
	var files [][]byte
	for _, t := range tables {
		buf, err := b.env.FS.ReadFile(t.path, node)
		if err != nil {
			return nil, err
		}
		files = append(files, buf)
	}
	v["dfs.read_ms"] = sp.end(nil).ms()

	var lines [][]string
	for _, f := range files {
		lines = append(lines, strings.Split(strings.TrimSuffix(string(f), "\n"), "\n"))
	}
	sp = tr.start(0, 0, "row.text_decode")
	for i, t := range tables {
		for _, l := range lines[i] {
			if _, err := row.DecodeLine(l, t.schema); err != nil {
				return nil, err
			}
		}
	}
	s := sp.end(nil)
	v["row.text_decode_ms"] = s.ms()
	v["row.text_decode_alloc_mb"] = float64(s.Alloc) / mb

	rows, err := data.rows()
	if err != nil {
		return nil, err
	}
	types := make([]row.Type, data.schema.Len())
	for i, c := range data.schema.Cols {
		types[i] = c.Type
	}
	var batches []*row.ColBatch
	for i := 0; i < len(rows); i += row.BlockTargetRows {
		cb := row.NewColBatch(types)
		cb.FromRows(types, rows[i:min(i+row.BlockTargetRows, len(rows))])
		batches = append(batches, cb)
	}
	var frames [][]byte
	raw := 0
	sp = tr.start(0, 0, "row.wire_encode")
	var enc row.BlockEncoder
	enc.EnableColumnar(types, true)
	for _, cb := range batches {
		enc.AppendBatch(cb)
		if enc.Rows() >= row.BlockTargetRows || enc.Len() >= row.BlockTargetBytes {
			raw += enc.RawBytes()
			frames = append(frames, enc.Finish())
		}
	}
	if enc.Rows() > 0 {
		raw += enc.RawBytes()
		frames = append(frames, enc.Finish())
	}
	v["row.wire_encode_ms"] = sp.end(nil).ms()

	sp = tr.start(0, 0, "row.wire_decode")
	var dec row.BlockDecoder
	dst := row.NewColBatch(types)
	decoded, wire := 0, 0
	for _, f := range frames {
		n, err := dec.DecodeBatch(f, dst, types)
		if err != nil {
			return nil, err
		}
		decoded += n
		wire += len(f)
	}
	v["row.wire_decode_ms"] = sp.end(nil).ms()
	if decoded != len(rows) {
		return nil, fmt.Errorf("wire round trip: %d rows decoded, %d encoded", decoded, len(rows))
	}
	v["row.wire_bytes"] = float64(wire)
	v["row.raw_bytes"] = float64(raw)
	return v, nil
}

// spanCost measures what one span costs to record: two clock reads, two
// runtime/metrics reads and the append.
func spanCost() float64 {
	tr := newTracer()
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.start(1, 0, "x").end(nil)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / n
}

// tracedRun is --trace 1: a short untraced loop for the overhead baseline
// and the runtime counters, then traced pipelines for the rest of the
// time, then the isolated layer measurements. It reports the per-pipeline
// median of every layer value.
func tracedRun(b *bench, d time.Duration, outDir string) (*report, error) {
	c0 := readCounters()
	base := b.loop(d / 3)
	charged := readCounters().sub(c0)

	tr := newTracer()
	var (
		per    = map[string][]float64{}
		failed int
		traced int
		start  = time.Now()
	)
	for time.Since(start) < d-d/3 || traced == 0 {
		o := b.ops[traced%len(b.ops)]
		traced++
		pid := int64(traced)
		ds, hit, _, err := b.tracedPipeline(tr, pid, o)
		if err == nil {
			err = b.verify(o, hit, ds)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "pipebench: traced pipeline %d: %v\n", pid, err)
			continue
		}
		for k, x := range fromSpans(tr.pipelineSpans(pid)) {
			per[k] = append(per[k], x)
		}
	}
	// Isolated measurements, three repetitions, median. The wire figures
	// use the data of one more pipeline of the cycle's first op, run after
	// the loop so that no traced pipeline shares the heap with it.
	_, _, data, err := b.tracedPipeline(newTracer(), int64(traced+1), b.ops[0])
	if err != nil {
		return nil, fmt.Errorf("isolated layers: %w", err)
	}
	iso := map[string][]float64{}
	for i := 0; i < 3; i++ {
		v, err := b.isolated(tr, data)
		if err != nil {
			return nil, fmt.Errorf("isolated layers: %w", err)
		}
		for k, x := range v {
			iso[k] = append(iso[k], x)
		}
	}

	if err := tr.dump(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))); err != nil {
		return nil, err
	}

	// A layer no traced pipeline reached reads 0: the workload bypasses it.
	vals := map[string]float64{}
	for _, d := range perLayer {
		vals[d.name] = 0
	}
	for k, xs := range per {
		vals[k] = median(xs)
	}
	for k, xs := range iso {
		vals[k] = median(xs)
	}
	lookups, hits := sum(per["cache.lookups"]), sum(per["cache.full_hits"])
	vals["cache.lookups"] = lookups
	if lookups > 0 {
		vals["cache.hit_ratio"] = hits / lookups
	}
	if charged.totalCPU > 0 {
		vals["runtime.gc_cpu_fraction"] = charged.gcCPU / charged.totalCPU
	}
	vals["runtime.gc_cycles_per_pipeline"] = float64(charged.gcCycles) / float64(base.attempted)
	untraced := quantile(base.latencies, 0.5)
	vals["trace.untraced_p50_ms"] = untraced
	vals["trace.overhead_ms"] = vals["trace.pipeline_ms"] - untraced
	vals["trace.span_cost_us"] = spanCost()
	vals["trace.pipelines"] = float64(traced)
	fmt.Printf("# traced=%d untraced=%d failed=%d cache_lookups=%v full_hits=%v\n", traced, base.attempted, failed+base.failed, lookups, hits)
	return &report{
		Correct:   failed+base.failed == 0,
		Attempted: traced + base.attempted,
		Failed:    failed + base.failed,
		Metrics:   withUnits(perLayer, vals),
	}, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
