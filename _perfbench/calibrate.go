package main

// Host-speed calibration. The machines this benchmark runs on are
// shared VMs whose speed drifts by 20–40% over minutes, which moves
// every host time by the same factor. Each pass therefore also times a
// fixed standard-library workload shaped like the simulator's host
// costs — map inserts and lookups, a sort, small allocations and
// goroutine hand-offs — and scales its host times by calReference over
// that calibration time: "seconds on a machine whose calibration takes
// calReference". The calibration shares no code with the program, so a
// change to the program moves the scaled times exactly as it moves the
// raw ones; the raw medians are reported beside them as per-layer
// metrics (bench.wall_s, bench.setup_wall_s, bench.cal_ms).

import (
	"sort"
	"time"
)

// calReference is the calibration time of a 2-vCPU x86-64 VM at its
// usual speed, so scaled times read close to wall time there.
const calReference = 30 * time.Millisecond

var calSink int

// calibrate returns the time of one run of the calibration workload.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	m := make(map[int]int)
	for i := 0; i < 50000; i++ {
		m[int(next()%1000003)] = i
	}
	for i := 0; i < 200000; i++ {
		calSink += m[i]
	}
	fs := make([]float64, 50000)
	for i := range fs {
		fs[i] = float64(next() % 100000)
	}
	sort.Float64s(fs)
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 5000; i++ {
		ping <- i
		calSink += <-pong
	}
	close(ping)
	return time.Since(t0)
}
