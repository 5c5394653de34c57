package main

import (
	"fmt"
	"math"
	"sort"

	"sqlml/internal/datagen"
	"sqlml/internal/ml"
)

// The oracle computes what a pipeline must deliver into ml.Dataset
// straight from the generated tables, in plain Go: the users⋈carts join,
// the country filter, the follow-up predicates, recoding by sorted value
// and dummy coding. It shares no code with sqlengine, transform, jaql or
// ml; only the generated rows and the output dataset cross the boundary.

// joinedRow is one row of the paper query's join before projection. The
// categorical fields are held as their 1-based recode codes, so the rows
// hold no pointers: the oracle's data stays in memory for the whole run
// and must not add to the program's GC work.
type joinedRow struct {
	age    int64
	amount float64
	gender int // index+1 into warehouse.genders
	label  int // index+1 into warehouse.labels
}

// warehouse is the paper query's result and its recode map, as the
// oracle sees them.
type warehouse struct {
	rows    []joinedRow
	genders []string // distinct values, sorted: code i+1 is genders[i]
	labels  []string // distinct abandoned values, sorted
}

// Column positions within the datagen schemas (datagen.UsersSchema and
// datagen.CartsSchema).
const (
	userID, userAge, userGender, userCountry = 0, 1, 2, 3
	cartUser, cartAmount, cartAbandoned      = 1, 2, 5
)

// joinUSA evaluates the paper query's FROM/WHERE over the generated rows
// and recodes its categorical fields by sorted value.
func joinUSA(d *datagen.Dataset) *warehouse {
	type user struct {
		age    int64
		gender string
		usa    bool
	}
	users := make(map[int64]user, len(d.Users))
	for _, u := range d.Users {
		users[u[userID].AsInt()] = user{
			age:    u[userAge].AsInt(),
			gender: u[userGender].AsString(),
			usa:    u[userCountry].AsString() == "USA",
		}
	}
	type raw struct {
		u         user
		amount    float64
		abandoned string
	}
	var rows []raw
	genders, labels := map[string]bool{}, map[string]bool{}
	for _, c := range d.Carts {
		u, ok := users[c[cartUser].AsInt()]
		if !ok || !u.usa {
			continue
		}
		r := raw{u: u, amount: c[cartAmount].AsFloat(), abandoned: c[cartAbandoned].AsString()}
		rows = append(rows, r)
		genders[u.gender] = true
		labels[r.abandoned] = true
	}
	w := &warehouse{genders: sortedKeys(genders), labels: sortedKeys(labels), rows: make([]joinedRow, len(rows))}
	for i, r := range rows {
		w.rows[i] = joinedRow{age: r.u.age, amount: r.amount, gender: code(w.genders, r.u.gender), label: code(w.labels, r.abandoned)}
	}
	return w
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// code is v's 1-based position in levels, or 0 when v is not a level.
func code(levels []string, v string) int {
	for i, l := range levels {
		if l == v {
			return i + 1
		}
	}
	return 0
}

// followUp is one pipeline's query shape over the paper query: the
// projected columns (always ending with the label) and extra conjuncts.
type followUp struct {
	cols []string // subset of age, gender, amount, abandoned, in that order
	// ageMin/ageMax bound U.age (ageMax 0 means unbounded above).
	ageMin, ageMax int64
	// genderOp is "", "=" or "<>"; genderVal its literal.
	genderOp, genderVal string
}

// expectation is the oracle's summary of a dataset: row count, label
// sum, per-feature sums and per-feature label-weighted sums (the last
// catch a feature paired with the wrong row's label).
type expectation struct {
	rows      int
	labelSum  float64
	featSum   []float64
	crossSums []float64
}

// expect computes the summary of the dataset q must produce. The label is
// abandoned's code minus one; gender, when projected, is dummy coded over
// the paper query's levels (the cached map for follow-ups, the fresh map
// otherwise — the same sorted levels).
func (w *warehouse) expect(q followUp) *expectation {
	width := 0
	for _, c := range q.cols {
		switch c {
		case "gender":
			width += len(w.genders)
		case "abandoned":
		default:
			width++
		}
	}
	e := &expectation{featSum: make([]float64, width), crossSums: make([]float64, width)}
	feats := make([]float64, width)
	gender := code(w.genders, q.genderVal) // 0 (no row) for a value absent from the data
	for _, r := range w.rows {
		if r.age < q.ageMin || (q.ageMax > 0 && r.age >= q.ageMax) {
			continue
		}
		if (q.genderOp == "=" && r.gender != gender) || (q.genderOp == "<>" && r.gender == gender) {
			continue
		}
		f := feats[:0]
		for _, c := range q.cols {
			switch c {
			case "age":
				f = append(f, float64(r.age))
			case "amount":
				f = append(f, r.amount)
			case "gender":
				for i := range w.genders {
					bit := 0.0
					if i+1 == r.gender {
						bit = 1
					}
					f = append(f, bit)
				}
			}
		}
		label := float64(r.label - 1)
		e.rows++
		e.labelSum += label
		for i, v := range f {
			e.featSum[i] += v
			e.crossSums[i] += v * label
		}
	}
	return e
}

// summarize reduces a delivered dataset to the oracle's summary.
func summarize(d *ml.Dataset) *expectation {
	e := &expectation{featSum: make([]float64, d.NumFeatures), crossSums: make([]float64, d.NumFeatures)}
	for _, part := range d.Parts {
		for _, p := range part {
			if len(p.Features) != d.NumFeatures {
				e.featSum = nil // width mismatch: compare reports it
				return e
			}
			e.rows++
			e.labelSum += p.Label
			for i, v := range p.Features {
				e.featSum[i] += v
				e.crossSums[i] += v * p.Label
			}
		}
	}
	return e
}

// check compares a delivered dataset against the expectation; sums agree
// to a relative 1e-9 (the engine adds in another order).
func (want *expectation) check(d *ml.Dataset) error {
	if d == nil {
		return fmt.Errorf("oracle: no dataset")
	}
	got := summarize(d)
	if got.rows != want.rows {
		return fmt.Errorf("oracle: %d rows, want %d", got.rows, want.rows)
	}
	if len(got.featSum) != len(want.featSum) {
		return fmt.Errorf("oracle: %d features, want %d", d.NumFeatures, len(want.featSum))
	}
	if !close9(got.labelSum, want.labelSum) {
		return fmt.Errorf("oracle: label sum %v, want %v", got.labelSum, want.labelSum)
	}
	for i := range want.featSum {
		if !close9(got.featSum[i], want.featSum[i]) {
			return fmt.Errorf("oracle: feature %d sum %v, want %v", i, got.featSum[i], want.featSum[i])
		}
		if !close9(got.crossSums[i], want.crossSums[i]) {
			return fmt.Errorf("oracle: feature %d label-weighted sum %v, want %v", i, got.crossSums[i], want.crossSums[i])
		}
	}
	return nil
}

func close9(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
