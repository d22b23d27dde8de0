package main

// Probes time calls into each layer's public functions from outside the
// program. Each probe runs a few batches and reports the median batch's
// host cost per operation.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	ivy "repro"
	"repro/internal/memfs"
	"repro/internal/mmu"
	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// probeBatches is the number of timed batches per probe.
const probeBatches = 5

// sink keeps probed reads live.
var sink uint64

// perOp times probeBatches batches of n operations and returns the
// median batch's nanoseconds per operation.
func perOp(n int, batch func(n int)) float64 {
	var xs []float64
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		batch(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// probeSpawn: sim.Engine.Go of an empty fiber, from the call to the
// fiber's exit, in spawn groups of 64.
func probeSpawn() (float64, error) {
	var err error
	ns := perOp(64*200, func(n int) {
		eng := sim.New(1)
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				eng.Go("probe", func(*sim.Fiber) {})
			}
			if e := eng.Run(); e != nil {
				err = e
			}
		}
	})
	return ns, err
}

// probeEvent: sim.Engine.Schedule to dispatch, with 64 event chains
// standing in the queue at staggered delays.
func probeEvent() (float64, error) {
	var err error
	ns := perOp(200000, func(n int) {
		eng := sim.New(1)
		left := n
		for c := 0; c < 64; c++ {
			d := time.Duration(c%7+1) * time.Microsecond
			var tick func()
			tick = func() {
				if left--; left > 0 {
					eng.Schedule(d, tick)
				}
			}
			eng.Schedule(d, tick)
		}
		if e := eng.Run(); e != nil {
			err = e
		}
	})
	return ns, err
}

// probeAccess: Proc.ReadU64 of a resident page, through the TLB or,
// with disableTLB, through the checked memfs/mmu path.
func probeAccess(disableTLB bool) (float64, error) {
	c := ivy.New(ivy.Config{Processors: 1, Seed: 1, DisableTLB: disableTLB})
	var ns float64
	err := c.Run(func(p *ivy.Proc) {
		addr := p.MustMalloc(8192)
		for i := 0; i < 1024; i++ {
			p.WriteU64(addr+uint64(i*8), uint64(i))
		}
		ns = perOp(200000, func(n int) {
			for i := 0; i < n; i++ {
				sink += p.ReadU64(addr + uint64((i%1024)*8))
			}
		})
	})
	return ns, err
}

// probeRemoteFault: host microseconds per remote read fault on two
// nodes — node 0 owns the pages, node 1 faults each one in once.
func probeRemoteFault() (float64, error) {
	const pages = 256
	var xs []float64
	for b := 0; b < probeBatches; b++ {
		c := ivy.New(ivy.Config{Processors: 2, Seed: 1})
		err := c.Run(func(p *ivy.Proc) {
			addr := p.MustMalloc(pages * 1024)
			for k := 0; k < pages; k++ {
				p.WriteU64(addr+uint64(k*1024), uint64(k))
			}
			done := p.NewEventcount(4)
			p.CreateOn(1, func(q *ivy.Proc) {
				t0 := time.Now()
				for k := 0; k < pages; k++ {
					sink += q.ReadU64(addr + uint64(k*1024))
				}
				xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/pages)
				done.Advance(q)
			})
			done.Wait(p, 1)
		})
		if err != nil {
			return 0, err
		}
	}
	return median(xs), nil
}

// probePoolGet: memfs.Pool.Get of a resident page.
func probePoolGet() float64 {
	pool := memfs.NewPool(0, func(*sim.Fiber, mmu.PageID, []byte) {}, nil)
	for p := 0; p < 256; p++ {
		pool.Put(nil, mmu.PageID(p), make([]byte, 1024))
	}
	return perOp(1000000, func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(len(pool.Get(mmu.PageID(i % 256))))
		}
	})
}

// probePageLock: uncontended mmu.Table Lock/Unlock pairs.
func probePageLock() (float64, error) {
	eng := sim.New(1)
	tbl := mmu.NewTable(0, 1024, 0)
	var ns float64
	eng.Go("probe", func(f *sim.Fiber) {
		ns = perOp(1000000, func(n int) {
			for i := 0; i < n; i++ {
				pg := mmu.PageID(i % 1024)
				tbl.Lock(f, pg)
				tbl.Unlock(pg)
			}
		})
	})
	return ns, eng.Run()
}

// corpusDir holds the wire package's checked-in seed envelopes, one
// file per message kind.
var corpusDir = filepath.Join("internal", "wire", "testdata", "fuzz", "FuzzUnmarshal")

// seedEnvelopes reads the seed corpus and returns the valid envelopes
// by kind (the corpus also holds deliberately corrupt frames).
func seedEnvelopes() (map[int][][]byte, error) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "seed-*"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("wire seed corpus not found in %s", corpusDir)
	}
	out := make(map[int][][]byte)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(raw), "\n") {
			lit, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if _, err := wire.Unmarshal([]byte(b)); err == nil {
				k := int(wire.KindOfPayload([]byte(b)))
				out[k] = append(out[k], []byte(b))
			}
		}
	}
	return out, nil
}

// probeCodec: MarshalInto plus UnmarshalInto of each kind's seed
// envelopes, weighted by the workload's packets per kind.
func probeCodec(seeds map[int][][]byte, kinds []uint64) (float64, error) {
	cost := make(map[int]float64)
	buf := wire.NewBuffer()
	for k, envs := range seeds {
		var sum float64
		for _, data := range envs {
			src, err := wire.Unmarshal(data)
			if err != nil {
				return 0, err
			}
			var dst wire.Envelope
			sum += perOp(20000, func(n int) {
				for i := 0; i < n; i++ {
					buf.Reset()
					src.MarshalInto(buf)
					if err = wire.UnmarshalInto(&dst, buf.Bytes()); err != nil {
						return
					}
				}
			})
			if err != nil {
				return 0, err
			}
		}
		cost[k] = sum / float64(len(envs))
	}
	return kindWeighted(kinds, cost), nil
}

// payloadSizes returns each kind's mean payload size in the workload's
// traffic, or its seed envelope's size for kinds the workload never sent.
func payloadSizes(seeds map[int][][]byte, packets, bytes []uint64) map[int]int {
	out := make(map[int]int)
	for k, envs := range seeds {
		out[k] = len(envs[0])
		if k < len(packets) && packets[k] > 0 {
			out[k] = int(bytes[k] / packets[k])
		}
	}
	return out
}

// probeFrame: tcpnet AppendFrame plus ReadFrame of the workload's
// payload sizes, weighted by its packets per kind.
func probeFrame(sizes map[int]int, kinds []uint64) (float64, error) {
	cost := make(map[int]float64)
	var frame []byte
	var err error
	for k, size := range sizes {
		payload := make([]byte, size)
		cost[k] = perOp(20000, func(n int) {
			for i := 0; i < n; i++ {
				frame = tcpnet.AppendFrame(frame[:0], 0, 1, payload)
				if _, err = tcpnet.ReadFrame(bytes.NewReader(frame)); err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
	}
	return kindWeighted(kinds, cost), nil
}

// probeRingSend: ring.Network.Send to delivery between two stations,
// one frame in flight at a time.
func probeRingSend(payload []byte) (float64, error) {
	var err error
	ns := perOp(100000, func(n int) {
		eng := sim.New(1)
		nw := ring.New(eng, model.Default1988(), 2)
		left := n
		send := func() { nw.Send(&ring.Packet{Src: 0, Dst: 1, Payload: payload}) }
		nw.Attach(0, func(*ring.Packet) {})
		nw.Attach(1, func(*ring.Packet) {
			if left--; left > 0 {
				send()
			}
		})
		eng.Schedule(0, send)
		if e := eng.Run(); e != nil {
			err = e
		}
	})
	return ns, err
}

// probeTCPRoundTrip: microseconds for one frame to go from station 0 to
// station 1 and back over TCP on 127.0.0.1, through the engine bridge
// the tcp-loopback transport uses.
func probeTCPRoundTrip(payload []byte) (float64, error) {
	const pings = 300
	eng := sim.New(1)
	lb, err := tcpnet.NewLoopback(eng, 2, 0, tcpnet.Options{})
	if err != nil {
		return 0, err
	}
	defer lb.Close()
	eng.SetExternal(lb.Driver())
	var waiter *sim.Fiber
	lb.Net(0).Attach(0, func(*ring.Packet) { waiter.Unpark() })
	lb.Net(1).Attach(1, func(*ring.Packet) {
		lb.Net(1).Send(&ring.Packet{Src: 1, Dst: 0, Payload: payload})
	})
	var xs []float64
	eng.Go("ping", func(f *sim.Fiber) {
		waiter = f
		for i := 0; i < pings; i++ {
			t0 := time.Now()
			lb.Net(0).Send(&ring.Packet{Src: 0, Dst: 1, Payload: payload})
			f.Park("pong")
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		eng.Stop()
	})
	if err := eng.Run(); err != nil {
		return 0, err
	}
	// The first pings pay for dialing the connections.
	return median(xs[pings/10:]), nil
}
