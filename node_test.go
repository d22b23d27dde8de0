package ivy_test

// Multi-engine node tests: several ivy.NewNode clusters in ONE test
// process, each with its own engine and wall-clock driver, talking over
// real loopback TCP. This is the cmd/ivynode topology minus the process
// boundary — every property these tests check (cross-engine coherence,
// SPMD rendezvous on never-initialized eventcounts, the quiet-window
// shutdown linger) holds identically for separate OS processes, because
// nothing is shared between the ranks but the sockets.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	ivy "repro"
)

// reservePorts picks n distinct loopback addresses by listening and
// closing. A tiny race window exists (another process could grab the
// port between Close and the node's Listen), which is fine for tests.
func reservePorts(t *testing.T, n int) map[int]string {
	t.Helper()
	addrs := make(map[int]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startRank builds one rank's cluster and runs body on it, delivering
// the result to errc. Mirrors what one ivynode process does.
func startRank(errc chan<- error, rank, size int, peers map[int]string, cfg ivy.Config, body func(p *ivy.Proc, rank int)) {
	go func() {
		c, _, err := ivy.NewNode(ivy.NodeConfig{Config: cfg, Rank: rank, Peers: peers})
		if err != nil {
			errc <- fmt.Errorf("rank %d: %w", rank, err)
			return
		}
		err = c.Run(func(p *ivy.Proc) { body(p, rank) })
		if err != nil {
			err = fmt.Errorf("rank %d: %w", rank, err)
		}
		errc <- err
	}()
}

func collectRanks(t *testing.T, errc <-chan error, size int) {
	t.Helper()
	for i := 0; i < size; i++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(90 * time.Second):
			t.Fatal("ranks did not finish")
		}
	}
}

// TestNodeCounterTwoEngines runs the mutual-exclusion counter across
// two independent engines joined only by TCP: every increment's page
// ownership migrates over a real socket, and the final count proves no
// update was lost. The finale mirrors cmd/ivynode's two-phase shutdown.
func TestNodeCounterTwoEngines(t *testing.T) {
	t.Parallel()
	const size, incs = 2, 25
	peers := reservePorts(t, size)
	cfg := ivy.Config{
		Processors:  size,
		SharedPages: 64,
		Horizon:     20 * time.Minute,
		TimeScale:   400,
	}
	var mu sync.Mutex
	finals := map[int]uint64{}
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		startRank(errc, r, size, peers, cfg, func(p *ivy.Proc, rank int) {
			base := p.Cluster().Base()
			page := uint64(p.Cluster().PageSize())
			lockAddr := base + 2*page
			countAddr := lockAddr + 8
			for i := 0; i < incs; i++ {
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
			part := p.AttachEventcount(base, size+1)
			done := p.AttachEventcount(base+page, size+1)
			part.Advance(p)
			if rank == 0 {
				part.Wait(p, int64(size))
				mu.Lock()
				finals[rank] = p.ReadU64(countAddr)
				mu.Unlock()
				done.Advance(p)
				return
			}
			done.Wait(p, 1)
		})
	}
	collectRanks(t, errc, size)
	if got, want := finals[0], uint64(size*incs); got != want {
		t.Errorf("final count %d, want %d", got, want)
	}
}

// TestNodeThreeEnginesSPMD runs a three-rank SPMD reduction: rank 0
// seeds a vector, every rank pulls its slice through shared memory and
// publishes a partial sum, rank 0 reduces — the cmd/ivynode dotprod
// shape, checked against a locally computed expectation.
func TestNodeThreeEnginesSPMD(t *testing.T) {
	t.Parallel()
	const size, n = 3, 1536
	peers := reservePorts(t, size)
	cfg := ivy.Config{
		Processors:  size,
		Algorithm:   ivy.DynamicDistributed,
		SharedPages: 128,
		Horizon:     20 * time.Minute,
		TimeScale:   400,
	}
	var mu sync.Mutex
	var total float64
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		startRank(errc, r, size, peers, cfg, func(p *ivy.Proc, rank int) {
			base := p.Cluster().Base()
			page := uint64(p.Cluster().PageSize())
			ecInit, ecPart, ecDone := base, base+page, base+2*page
			xBase := base + 3*page
			partBase := xBase + 8*uint64(n)
			init := p.AttachEventcount(ecInit, size+1)
			if rank == 0 {
				xv := make([]float64, n)
				for i := range xv {
					xv[i] = float64(i%17) * 0.5
				}
				p.WriteF64s(xBase, xv)
				init.Advance(p)
			} else {
				init.Wait(p, 1)
			}
			lo := rank * n / size
			hi := (rank + 1) * n / size
			xs := make([]float64, hi-lo)
			p.ReadF64s(xBase+8*uint64(lo), xs)
			sum := 0.0
			for _, v := range xs {
				sum += v
			}
			p.WriteF64(partBase+128*uint64(rank), sum)
			part := p.AttachEventcount(ecPart, size+1)
			done := p.AttachEventcount(ecDone, size+1)
			part.Advance(p)
			if rank == 0 {
				part.Wait(p, int64(size))
				s := 0.0
				for w := 0; w < size; w++ {
					s += p.ReadF64(partBase + 128*uint64(w))
				}
				mu.Lock()
				total = s
				mu.Unlock()
				done.Advance(p)
				return
			}
			done.Wait(p, 1)
		})
	}
	collectRanks(t, errc, size)
	want := 0.0
	for i := 0; i < n; i++ {
		want += float64(i%17) * 0.5
	}
	if total != want {
		t.Errorf("reduction over TCP = %g, want %g", total, want)
	}
}

// TestNodeConfigRejections covers NewNode's validation surface.
func TestNodeConfigRejections(t *testing.T) {
	t.Parallel()
	peers := map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:2"}
	cases := []struct {
		name string
		nc   ivy.NodeConfig
	}{
		{"rank out of range", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: 2, Peers: peers}},
		{"negative rank", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: -1, Peers: peers}},
		{"missing peer", ivy.NodeConfig{Config: ivy.Config{Processors: 3}, Rank: 0, Peers: peers, Listen: "127.0.0.1:0"}},
		{"peer rank out of range", ivy.NodeConfig{Config: ivy.Config{Processors: 2}, Rank: 0, Listen: "127.0.0.1:0",
			Peers: map[int]string{1: "127.0.0.1:1", 7: "127.0.0.1:2"}}},
		{"chaos plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, Chaos: &ivy.ChaosOpts{LossProbability: 0.1}}, Rank: 0, Peers: peers}},
		{"profiler plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, Profile: true}, Rank: 0, Peers: peers}},
		{"race plane", ivy.NodeConfig{Config: ivy.Config{Processors: 2, DRace: true}, Rank: 0, Peers: peers}},
	}
	for _, tc := range cases {
		if c, _, err := ivy.NewNode(tc.nc); err == nil {
			t.Errorf("%s: NewNode accepted a bad config", tc.name)
			_ = c
		}
	}
}
