package main

// The benchmark's own arithmetic: order statistics, span self time,
// message-kind weighting and profile leaf attribution. Everything here
// is pure so arith_test.go can pin it.

import (
	"math"
	"sort"
	"strings"
)

// median returns the middle of xs (the mean of the two middle values
// when len(xs) is even), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sortedCopy(xs)[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// span is one complete trace-event interval: a protocol phase that ran
// on node in lane (the fault root it belongs to), in microseconds.
type span struct {
	name       string
	node       int
	lane       uint64
	start, dur float64
}

func (s span) end() float64 { return s.start + s.dur }

// containsEps absorbs the rounding of nanosecond timestamps exported as
// float microseconds.
const containsEps = 1e-3

func (s span) contains(c span) bool {
	return c.start >= s.start-containsEps && c.end() <= s.end()+containsEps
}

// selfTimes returns, for each span, its duration minus the part of it
// covered by spans nested inside it in the same lane (same node, same
// fault root). A child that ran on another node lies in another lane
// and does not reduce its parent's self time.
func selfTimes(spans []span) []float64 {
	type laneKey struct {
		node int
		lane uint64
	}
	lanes := make(map[laneKey][]int)
	for i, s := range spans {
		k := laneKey{s.node, s.lane}
		lanes[k] = append(lanes[k], i)
	}
	self := make([]float64, len(spans))
	covered := make([]float64, len(spans))
	coveredTo := make([]float64, len(spans))
	for _, idx := range lanes {
		// Parents before their children: earlier start first, longer
		// span first on ties.
		sort.SliceStable(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.dur > sb.dur
		})
		var stack []int
		for _, i := range idx {
			s := spans[i]
			for len(stack) > 0 && !spans[stack[len(stack)-1]].contains(s) {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				// s is a direct child of the top: add the part of it not
				// already covered by an earlier sibling.
				p := stack[len(stack)-1]
				if coveredTo[p] < spans[p].start {
					coveredTo[p] = spans[p].start
				}
				lo := math.Max(s.start, coveredTo[p])
				hi := math.Min(s.end(), spans[p].end())
				if hi > lo {
					covered[p] += hi - lo
					coveredTo[p] = hi
				}
			}
			stack = append(stack, i)
		}
	}
	for i, s := range spans {
		self[i] = math.Max(0, s.dur-covered[i])
	}
	return self
}

// kindWeighted returns the per-message cost of a traffic mix: the mean
// of cost[k] weighted by packets[k] over the kinds that have a cost.
// With no costed traffic every costed kind weighs equally.
func kindWeighted(packets []uint64, cost map[int]float64) float64 {
	var sum, weight float64
	for k, c := range cost {
		if k < len(packets) {
			sum += float64(packets[k]) * c
			weight += float64(packets[k])
		}
	}
	if weight > 0 {
		return sum / weight
	}
	for _, c := range cost {
		sum += c
		weight++
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// cpuModules lists the modules whose share of CPU profile samples the
// benchmark reports: the repository's packages by name ("ivy" is the
// root package), the Go runtime, and everything else.
var cpuModules = []string{
	"sim", "core", "memfs", "mmu", "disk", "wire", "remop", "ring",
	"rc", "tcpnet", "proc", "ec", "apps", "ivy", "runtime", "other",
}

// moduleOf maps a profile frame's function name, such as
// "repro/internal/core.(*SVM).ReadU32", to its module.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may themselves contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "repro":
		return "ivy"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// moduleSamples adds up profile samples by the module of their leaf
// function, given each sample's leaf and weight.
func moduleSamples(leaves []string, weights []int64) map[string]int64 {
	out := make(map[string]int64)
	for i, fn := range leaves {
		out[moduleOf(fn)] += weights[i]
	}
	return out
}

// moduleShares returns every module of cpuModules with its percentage
// of the samples.
func moduleShares(samples map[string]int64) map[string]float64 {
	var total int64
	for _, n := range samples {
		total += n
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		out[m] = 100 * ratio(float64(samples[m]), float64(total))
	}
	return out
}
