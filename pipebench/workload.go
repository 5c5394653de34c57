package main

import (
	"fmt"
	"math/rand"
	"strings"

	"sqlml/internal/cache"
	"sqlml/internal/core"
	"sqlml/internal/datagen"
	"sqlml/internal/experiments"
	"sqlml/internal/ml"
	"sqlml/internal/stream"
	"sqlml/internal/transform"
)

// Workload names, as BENCHMARK.json lists them.
const (
	freshStream = "fresh-stream"
	naiveDFS    = "naive-dfs"
	cachedReuse = "cached-reuse"
)

var workloads = []string{freshStream, naiveDFS, cachedReuse}

// op is one pipeline the closed loop runs.
type op struct {
	approach core.Approach
	cfg      core.PipelineConfig
	want     *expectation
}

// bench is one set-up deployment: the simulated cluster with the
// generated warehouse loaded, the oracle's view of it, and the op
// sequence the loop cycles through.
type bench struct {
	workload string
	seed     int64
	env      *core.Env
	wh       *warehouse
	ops      []op
	// usersPath/cartsPath are the warehouse files on the DFS.
	usersPath, cartsPath string
}

// fullShape is the paper query itself: every column, no extra conjunct.
var fullShape = followUp{cols: []string{"age", "gender", "amount", "abandoned"}}

// followUpCount is the length of the cached-reuse query cycle: every
// projection × gender-condition pair once.
const followUpCount = 24

// newBench starts a deployment for the workload at the Figure-3 scale:
// env, data generation and DFS load, the oracle, cache priming
// (cached-reuse) and warm-up pipelines. The datagen seed is the workload
// seed, so seed 7 is experiments.DefaultScale's data.
func newBench(workload string, seed int64, scale experiments.Scale, spillDir string, warmups int) (b *bench, err error) {
	scale.Seed = seed
	cfg := core.DefaultEnvConfig()
	cfg.Cost = experiments.CalibratedCost()
	cfg.BlockSize = 64 << 10
	cfg.SenderConfig = stream.DefaultSenderConfig()
	cfg.SenderConfig.SpillDir = spillDir
	cfg.MRStartupDelay = experiments.MRStartupDelay(scale)
	env, err := core.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	b = &bench{workload: workload, seed: seed, env: env}
	defer func() {
		if err != nil {
			env.Close()
		}
	}()
	data, err := datagen.Generate(datagen.Config{Users: scale.Users, CartsPerUser: scale.CartsPerUser, Seed: seed})
	if err != nil {
		return nil, err
	}
	b.usersPath, b.cartsPath, err = datagen.WriteToDFS(data, env.FS, "/warehouse", env.Topo.Node(1))
	if err != nil {
		return nil, err
	}
	if err := env.Engine.RegisterExternalTable("users", env.FS, b.usersPath, datagen.UsersSchema()); err != nil {
		return nil, err
	}
	if err := env.Engine.RegisterExternalTable("carts", env.FS, b.cartsPath, datagen.CartsSchema()); err != nil {
		return nil, err
	}
	b.wh = joinUSA(data)

	switch workload {
	case freshStream:
		b.ops = []op{b.paperOp(core.InSQLStream)}
	case naiveDFS:
		b.ops = []op{b.paperOp(core.Naive)}
	case cachedReuse:
		prime := experiments.PaperPipeline()
		prime.CachePopulate = true
		res, err := core.Run(env, core.InSQLStream, prime)
		if err != nil {
			return nil, fmt.Errorf("cache priming: %w", err)
		}
		if err := b.wh.expect(fullShape).check(res.Dataset); err != nil {
			return nil, fmt.Errorf("cache priming: %w", err)
		}
		for _, q := range followUps(seed) {
			b.ops = append(b.ops, op{approach: core.InSQLStream, cfg: followUpConfig(q), want: b.wh.expect(q)})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	for i := 0; i < warmups; i++ {
		o := b.ops[i%len(b.ops)]
		if _, err := b.runChecked(o); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *bench) close() { b.env.Close() }

func (b *bench) paperOp(a core.Approach) op {
	return op{approach: a, cfg: experiments.PaperPipeline(), want: b.wh.expect(fullShape)}
}

// runChecked runs one untraced pipeline and holds its dataset to the
// oracle; a cached-reuse op must also be a full-result hit.
func (b *bench) runChecked(o op) (*core.RunResult, error) {
	res, err := core.Run(b.env, o.approach, o.cfg)
	if err != nil {
		return nil, err
	}
	return res, b.verify(o, res.CacheHit, res.Dataset)
}

func (b *bench) verify(o op, hit cache.HitKind, d *ml.Dataset) error {
	if o.cfg.Tier == core.CacheFullResult && hit != cache.FullResultHit {
		return fmt.Errorf("cache: %s, want %s", hit, cache.FullResultHit)
	}
	return o.want.check(d)
}

// followUps derives the cached-reuse query cycle from the seed: each of
// six projections meets each of four gender conditions once, and each
// gets a U.age range from one of six five-year strata of lower bounds
// over 18..47 (odd strata also get an upper bound). The strata are laid
// out as a Latin rectangle with seeded row shifts, so every gender
// condition meets every stratum exactly once: the cycle's spread of row
// counts stays nearly the same from seed to seed while every query, its
// projection pairing and the cycle order change.
func followUps(seed int64) []followUp {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_f011_0a75))
	projections := [][]string{
		{"age", "gender", "amount", "abandoned"},
		{"age", "amount", "abandoned"},
		{"age", "gender", "abandoned"},
		{"gender", "amount", "abandoned"},
		{"amount", "abandoned"},
		{"age", "abandoned"},
	}
	genders := [][2]string{{"", ""}, {"=", "F"}, {"=", "M"}, {"<>", "F"}}
	shifts := rng.Perm(len(projections))
	out := make([]followUp, 0, followUpCount)
	for g, gc := range genders {
		for p, cols := range projections {
			stratum := (p + shifts[g]) % len(projections)
			q := followUp{cols: cols, genderOp: gc[0], genderVal: gc[1]}
			q.ageMin = 18 + 5*int64(stratum) + int64(rng.Intn(5))
			if stratum%2 == 1 {
				q.ageMax = q.ageMin + 20 + int64(rng.Intn(10))
			}
			out = append(out, q)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var columnSource = map[string]string{"age": "U.age", "gender": "U.gender", "amount": "C.amount", "abandoned": "C.abandoned"}

// sql renders the follow-up as a query over the warehouse tables.
func (q followUp) sql() string {
	sel := make([]string, len(q.cols))
	for i, c := range q.cols {
		sel[i] = columnSource[c]
	}
	where := []string{"C.userid=U.userid", "U.country='USA'"}
	if q.ageMin > 0 {
		where = append(where, fmt.Sprintf("U.age >= %d", q.ageMin))
	}
	if q.ageMax > 0 {
		where = append(where, fmt.Sprintf("U.age < %d", q.ageMax))
	}
	if q.genderOp != "" {
		where = append(where, fmt.Sprintf("U.gender %s '%s'", q.genderOp, q.genderVal))
	}
	return "SELECT " + strings.Join(sel, ", ") + " FROM carts C, users U WHERE " + strings.Join(where, " AND ")
}

// followUpConfig is the pipeline for a follow-up query, served from the
// cache at the full-result tier. Gender, when projected, keeps the primed
// pipeline's dummy coding; otherwise only the label is recoded.
func followUpConfig(q followUp) core.PipelineConfig {
	cfg := experiments.PaperPipeline()
	cfg.Query = q.sql()
	cfg.Tier = core.CacheFullResult
	cfg.Spec = transform.Spec{RecodeCols: []string{"abandoned"}}
	for _, c := range q.cols {
		if c == "gender" {
			cfg.Spec = experiments.PaperSpec()
		}
	}
	return cfg
}
