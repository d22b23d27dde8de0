package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"repro/internal/apps"
)

// answer is what a run computed: the app's check scalar and the digest
// of its result region.
type answer struct {
	check  float64
	digest uint64
}

func answerOf(r runRecord) answer { return answer{r.Check, r.Digest} }

// checker counts attempted and failed runs. A run fails when it returns
// an error, when its answer differs from the expected one (the recorded
// seed-1 answer, or at other seeds the answer of the same input run on
// another configuration), when it differs from the other runs of its
// pass (all runs of a pass compute the same input), or — on the
// simulated ring — when anything it reports differs from the same run
// in the first pass, traced or not, since those runs are deterministic.
type checker struct {
	w         workload
	runs      []run
	want      *answer // nil: no expected answer beyond agreement
	first     []uint64
	attempted int
	failed    int
}

func newChecker(w workload, seed int64) (*checker, error) {
	c := &checker{w: w, runs: w.runs(seed)}
	if seed == 1 {
		a, ok := seed1Answers[w.name]
		if !ok {
			return nil, fmt.Errorf("no recorded seed-1 answer for %s", w.name)
		}
		c.want = &a
		return c, nil
	}
	if w.ref == nil {
		return c, nil
	}
	r := w.ref(seed)
	res, err := r.exec(r.cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run %s: %w", r.name, err)
	}
	c.want = &answer{res.Check, res.Digest}
	return c, nil
}

// fingerprint hashes everything a run reports except host time.
func fingerprint(r apps.Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%v|%v|%x|%x|%v", r.Elapsed, r.Stats, r.Latency, math.Float64bits(r.Check), r.Digest, r.RC)
	return h.Sum64()
}

// check counts one pass's runs; traced marks the traced pass.
func (c *checker) check(runs []runRecord, traced bool) {
	if c.first == nil && !traced && !c.w.tcp {
		for _, r := range runs {
			c.first = append(c.first, r.FP)
		}
	}
	for i, r := range runs {
		c.attempted++
		a := answerOf(r)
		var why string
		switch {
		case r.Err != "":
			why = r.Err
		case c.want != nil && a != *c.want:
			why = fmt.Sprintf("answer %+v, want %+v", a, *c.want)
		case a != answerOf(runs[0]):
			why = fmt.Sprintf("answer %+v differs from %s's %+v", a, c.runs[0].name, answerOf(runs[0]))
		case !c.w.tcp && (i >= len(c.first) || r.FP != c.first[i]):
			why = "virtual results differ from the first pass"
		default:
			continue
		}
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s run %s failed: %s\n", c.w.name, c.runs[i].name, why)
	}
}
