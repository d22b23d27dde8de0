// Command ivynode runs ONE node of a multi-process IVY cluster over
// real TCP: start N copies — one per rank — pointing at each other, and
// they form a shared virtual memory spanning the processes, running the
// same coherence protocol (same 23 wire kinds) the simulator runs.
//
// A three-process dot product on one machine:
//
//	ivynode -rank 0 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 -app dotprod &
//	ivynode -rank 1 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 -app dotprod &
//	ivynode -rank 2 -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102 -app dotprod
//
// Every rank must be given the same -peers list, -manager, -app, and
// sizing flags; the cluster size is the number of entries in -peers.
// Programs are SPMD: the same main body starts on every rank and
// rendezvouses through eventcounts at fixed shared addresses (rank 0
// does the setup, the others wait on the init eventcount — attaching to
// a never-written eventcount is legal, it just reads as value 0).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	ivy "repro"
	"repro/internal/cli"
)

func main() {
	var (
		rank    = flag.Int("rank", -1, "this process's node id")
		listen  = flag.String("listen", "", "TCP bind address (default: own -peers entry)")
		peers   = flag.String("peers", "", "comma-separated rank=host:port for EVERY rank, e.g. 0=127.0.0.1:7100,1=127.0.0.1:7101")
		manager = flag.String("manager", "dynamic", "manager: dynamic, centralized, fixed, broadcast, basic")
		app     = flag.String("app", "dotprod", "program to run: dotprod, counter")
		n       = flag.Int("n", 4096, "problem size (dotprod: vector length; counter: increments per rank)")
		pages   = flag.Int("pages", 1024, "shared pages (must match on every rank)")
		scale   = flag.Int64("scale", 0, "virtual-per-wall time scale (0 = default)")
		seed    = flag.Int64("seed", 1988, "workload seed (must match on every rank)")
		// The horizon is virtual time; the wall-clock bound it implies
		// is horizon/scale (30 min at the default 200x scale ≈ 9 s of
		// wall time), and it must also cover ranks starting seconds
		// apart plus the quiet-window shutdown linger.
		horizon = flag.Duration("horizon", 30*time.Minute, "virtual-time run bound (wall bound ≈ horizon/scale)")
	)
	flag.Parse()

	peerMap, size, err := parsePeers(*peers)
	if err != nil {
		fatal(err)
	}
	if *rank < 0 || *rank >= size {
		fatal(fmt.Errorf("-rank %d out of range [0,%d)", *rank, size))
	}
	alg, err := cli.ParseManager(*manager)
	if err != nil {
		fatal(err)
	}
	cluster, bound, err := ivy.NewNode(ivy.NodeConfig{
		Config: ivy.Config{
			Processors:  size,
			Algorithm:   alg,
			SharedPages: *pages,
			TimeScale:   *scale,
			Seed:        *seed,
			Horizon:     *horizon,
		},
		Rank:   *rank,
		Listen: *listen,
		Peers:  peerMap,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "ivynode: rank %d/%d listening on %s, app %s, manager %s\n",
		*rank, size, bound, *app, *manager)

	var body func(p *ivy.Proc)
	switch *app {
	case "dotprod":
		body = func(p *ivy.Proc) { dotprod(p, *rank, size, *n, uint64(*seed)) }
	case "counter":
		body = func(p *ivy.Proc) { counter(p, *rank, size, *n) }
	default:
		fatal(fmt.Errorf("unknown -app %q", *app))
	}
	start := time.Now()
	if err := cluster.Run(body); err != nil {
		fatal(err)
	}
	ns := cluster.NetworkStats()
	fmt.Fprintf(os.Stderr, "ivynode: rank %d done: %v virtual, %v wall, %d packets (%d bytes) through this station\n",
		*rank, cluster.Elapsed(), time.Since(start).Round(time.Millisecond), ns.Packets, ns.Bytes)
}

// parsePeers decodes "0=a:p,1=b:p,..." and checks the ranks form a
// dense [0, size) set.
func parsePeers(s string) (map[int]string, int, error) {
	if s == "" {
		return nil, 0, fmt.Errorf("-peers is required")
	}
	m := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		r, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, 0, fmt.Errorf("-peers entry %q is not rank=addr", part)
		}
		id, err := strconv.Atoi(r)
		if err != nil {
			return nil, 0, fmt.Errorf("-peers entry %q: bad rank: %v", part, err)
		}
		if _, dup := m[id]; dup {
			return nil, 0, fmt.Errorf("-peers lists rank %d twice", id)
		}
		m[id] = addr
	}
	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for i, r := range ranks {
		if r != i {
			return nil, 0, fmt.Errorf("-peers ranks must be 0..%d with no gaps, got %v", len(m)-1, ranks)
		}
	}
	return m, len(m), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ivynode:", err)
	os.Exit(1)
}

// --- SPMD plumbing -------------------------------------------------------

// layout carves the fixed rendezvous addresses every rank agrees on out
// of the start of the shared space: three eventcount pages (init, part,
// done) followed by the app's data. No rank calls Malloc — the layout
// IS the allocation, computed identically everywhere.
type layout struct {
	ecInit, ecPart, ecDone uint64
	data                   uint64
}

func makeLayout(p *ivy.Proc) layout {
	base := p.Cluster().Base()
	page := uint64(p.Cluster().PageSize())
	return layout{
		ecInit: base,
		ecPart: base + page,
		ecDone: base + 2*page,
		data:   base + 3*page,
	}
}

// finale runs the two-phase shutdown every SPMD program needs: all
// ranks advance part; rank 0 waits for everyone, runs report (the last
// reads of shared memory — every other rank is still alive to serve its
// pages), then advances done; everyone else blocks on done. Only after
// done may a rank return, so no rank's engine stops while its pages are
// still needed.
func finale(p *ivy.Proc, lay layout, rank, size int, report func()) {
	part := p.AttachEventcount(lay.ecPart, size+1)
	done := p.AttachEventcount(lay.ecDone, size+1)
	part.Advance(p)
	if rank == 0 {
		part.Wait(p, int64(size))
		report()
		done.Advance(p)
		return
	}
	done.Wait(p, 1)
}

// splitRange partitions [0,n) into parts pieces; piece i is [lo,hi).
func splitRange(n, parts, i int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// xorshift mirrors the generator the benchmark suite seeds workloads
// with, so an ivynode run and a simulated run compute the same answer.
type xorshift uint64

func newXorshift(seed uint64) *xorshift {
	x := xorshift(seed | 1)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) nextFloat() float64 {
	return float64(x.next()>>11) / float64(1<<53)
}

// --- Programs ------------------------------------------------------------

// dotprod computes S = sum x_i*y_i: rank 0 initializes both vectors
// (the paper's "weak side" setup — all data starts on one processor),
// every rank pulls its slice through the shared memory and writes a
// partial sum, rank 0 reduces.
func dotprod(p *ivy.Proc, rank, size, n int, seed uint64) {
	lay := makeLayout(p)
	xBase := lay.data
	yBase := xBase + 8*uint64(n)
	partBase := yBase + 8*uint64(n)
	init := p.AttachEventcount(lay.ecInit, size+1)

	if rank == 0 {
		rng := newXorshift(seed)
		xv := make([]float64, n)
		yv := make([]float64, n)
		for i := 0; i < n; i++ {
			xv[i] = rng.nextFloat()
			yv[i] = rng.nextFloat()
		}
		p.WriteF64s(xBase, xv)
		p.WriteF64s(yBase, yv)
		init.Advance(p)
	} else {
		init.Wait(p, 1)
	}

	lo, hi := splitRange(n, size, rank)
	xs := make([]float64, hi-lo)
	ys := make([]float64, hi-lo)
	p.ReadF64s(xBase+8*uint64(lo), xs)
	p.ReadF64s(yBase+8*uint64(lo), ys)
	sum := 0.0
	for i := range xs {
		sum += xs[i] * ys[i]
	}
	p.LocalOps(2 * (hi - lo))
	// 128-byte stride limits false sharing of the partial slots.
	p.WriteF64(partBase+128*uint64(rank), sum)

	finale(p, lay, rank, size, func() {
		total := 0.0
		for w := 0; w < size; w++ {
			total += p.ReadF64(partBase + 128*uint64(w))
		}
		fmt.Printf("dotprod: S = %g (n=%d over %d ranks)\n", total, n, size)
	})
}

// counter has every rank perform n increments of one shared counter
// under a test-and-set lock — the smallest program that exercises page
// ownership ping-pong, mutual exclusion, and cross-process eventcounts.
// The final count must be exactly size*n.
func counter(p *ivy.Proc, rank, size, n int) {
	lay := makeLayout(p)
	lockAddr := lay.data
	countAddr := lay.data + 8
	for i := 0; i < n; i++ {
		backoff := 200 * time.Microsecond
		for !p.TestAndSet(lockAddr) {
			p.Sleep(backoff)
			if backoff < 8*time.Millisecond {
				backoff *= 2
			}
		}
		p.WriteU64(countAddr, p.ReadU64(countAddr)+1)
		p.ClearFlag(lockAddr)
	}
	finale(p, lay, rank, size, func() {
		got := p.ReadU64(countAddr)
		want := uint64(size * n)
		if got != want {
			fmt.Printf("counter: FAILED: %d increments, want %d\n", got, want)
			return
		}
		fmt.Printf("counter: %d increments across %d ranks, all accounted for\n", got, size)
	})
}
