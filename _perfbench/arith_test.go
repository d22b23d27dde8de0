package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7}, // one sample is every percentile
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
		{hundred, 50, 50},
		{hundred, 99, 99}, // one sample beyond it
		{hundred, 100, 100},
		{hundred, 0.5, 1},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	const near = 1e-9
	for _, c := range []struct {
		name  string
		spans []span
		want  []float64
	}{
		{
			name:  "lone span",
			spans: []span{{name: "read-fault", start: 10, dur: 5}},
			want:  []float64{5},
		},
		{
			name: "nested three deep",
			spans: []span{
				{name: "write-fault", start: 0, dur: 100},
				{name: "locate", start: 10, dur: 50},
				{name: "wire", start: 20, dur: 10},
			},
			want: []float64{50, 40, 10},
		},
		{
			name: "siblings, one overlapping the other",
			spans: []span{
				{name: "read-fault", start: 0, dur: 100},
				{name: "locate", start: 10, dur: 20},
				{name: "wire", start: 20, dur: 20}, // [20,40): 10 not yet covered
				{name: "wire", start: 60, dur: 10},
			},
			want: []float64{100 - 30 - 10, 20, 20, 10},
		},
		{
			name: "child on another node keeps its own lane",
			spans: []span{
				{name: "read-fault", node: 0, lane: 7, start: 0, dur: 100},
				{name: "serve", node: 1, lane: 7, start: 10, dur: 30},
			},
			want: []float64{100, 30},
		},
		{
			name: "other fault on the same node keeps its own lane",
			spans: []span{
				{name: "read-fault", node: 0, lane: 7, start: 0, dur: 100},
				{name: "read-fault", node: 0, lane: 8, start: 10, dur: 30},
			},
			want: []float64{100, 30},
		},
		{
			name: "child clipped to its parent's end",
			spans: []span{
				{name: "write-fault", start: 0, dur: 10},
				{name: "invalidate", start: 0, dur: 10},
				{name: "wire", start: 5, dur: 5},
			},
			want: []float64{0, 5, 5},
		},
	} {
		got := selfTimes(c.spans)
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > near {
				t.Errorf("%s: self times %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestKindWeighted(t *testing.T) {
	cost := map[int]float64{1: 100, 2: 300}
	for _, c := range []struct {
		name    string
		packets []uint64
		want    float64
	}{
		{"weighted by packets", []uint64{0, 3, 1}, (3*100 + 1*300) / 4.0},
		{"one kind", []uint64{0, 0, 5}, 300},
		{"uncosted kinds are ignored", []uint64{1000, 1, 1}, 200},
		{"no traffic weighs kinds equally", []uint64{0, 0, 0}, 200},
		{"no packet counts at all", nil, 200},
	} {
		if got := kindWeighted(c.packets, cost); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	if got := kindWeighted([]uint64{1}, nil); got != 0 {
		t.Errorf("no costs: %v, want 0", got)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*SVM).ReadU32":                   "core",
		"repro/internal/core.(*TLB).hit":                       "core",
		"repro/internal/sim.(*Engine).dispatch":                "sim",
		"repro/internal/memfs.(*Pool).TouchFrame":              "memfs",
		"repro/internal/remop.(*Endpoint).serve.func1":         "remop",
		"repro/internal/tcpnet.ReadFrame":                      "tcpnet",
		"repro/internal/apps.RunPDE3D.func1.1":                 "apps",
		"repro/internal/chaos/check.Sweep":                     "other",
		"repro.(*Proc).ReadF64":                                "ivy",
		"runtime.mallocgc":                                     "runtime",
		"runtime/internal/atomic.(*Uint32).Load":               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":         "runtime",
		"sync.(*Mutex).Lock":                                   "other",
		"main.runPass":                                         "other",
		"slices.SortFunc[go.shape.[]repro/internal/wire.Kind]": "other",
		"repro/internal/stats.(*Hist).Record":                  "other",
		"?":                                                    "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestModuleShares(t *testing.T) {
	samples := moduleSamples(
		[]string{"repro/internal/core.(*SVM).ReadU32", "runtime.mallocgc", "repro/internal/core.(*TLB).hit", "sync.(*Mutex).Lock"},
		[]int64{2, 1, 1, 4})
	shares := moduleShares(samples)
	if len(shares) != len(cpuModules) {
		t.Fatalf("%d modules reported, want all %d", len(shares), len(cpuModules))
	}
	for mod, want := range map[string]float64{"core": 37.5, "runtime": 12.5, "other": 50, "ring": 0} {
		if shares[mod] != want {
			t.Errorf("%s share %v, want %v", mod, shares[mod], want)
		}
	}
	for _, v := range moduleShares(nil) {
		if v != 0 {
			t.Errorf("empty profile reports a share: %v", v)
		}
	}
}

// spin burns CPU in a frame of its own for the profile decoder test.
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileLeaves(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaves, counts, err := profileLeaves(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) == 0 {
		t.Skip("no samples taken")
	}
	spun := int64(0)
	for i, fn := range leaves {
		if counts[i] < 1 {
			t.Errorf("leaf %q has %d samples", fn, counts[i])
		}
		if fn == "repro/perfbench.spin" || fn == "main.spin" {
			spun += counts[i]
		}
	}
	if spun == 0 {
		t.Errorf("no sample's leaf is spin; leaves: %v", leaves)
	}
	if _, _, err := profileLeaves([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
