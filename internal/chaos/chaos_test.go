package chaos

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/ring"
	"repro/internal/sim"
)

// rig is an n-station ring with the fault plane installed. Every
// delivery is recorded per receiver as the payload's first byte (a
// per-test sequence number) and its arrival time.
type rig struct {
	eng *sim.Engine
	nw  *ring.Network
	inj *Injector
	got map[ring.NodeID][]byte
	at  map[ring.NodeID][]sim.Time
}

func newRig(seed int64, n int, opts Opts) *rig {
	eng := sim.New(seed)
	costs := model.Default1988()
	costs.WireLatency = time.Millisecond
	costs.WireBytePeriod = time.Microsecond
	r := &rig{
		eng: eng,
		nw:  ring.New(eng, costs, n),
		inj: NewInjector(eng, opts, n),
		got: make(map[ring.NodeID][]byte),
		at:  make(map[ring.NodeID][]sim.Time),
	}
	for i := 0; i < n; i++ {
		id := ring.NodeID(i)
		r.nw.Attach(id, func(p *ring.Packet) {
			r.got[id] = append(r.got[id], p.Payload[0])
			r.at[id] = append(r.at[id], eng.Now())
		})
	}
	r.nw.SetInjector(r.inj)
	return r
}

func (r *rig) send(t *testing.T, src, dst ring.NodeID, seq byte) {
	t.Helper()
	r.nw.Send(&ring.Packet{Src: src, Dst: dst, Payload: []byte{seq}})
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// allFaults turns every fault on at once.
var allFaults = Opts{
	DuplicateProb: 0.2, DuplicateDelay: 50 * time.Millisecond,
	DelayProb: 0.2, MaxDelay: 80 * time.Millisecond,
	LossProb: 0.1, BurstProb: 0.05, BurstLen: 3,
}

// TestNewInjectorRejectsBadOpts: every probability must lie in [0,1]
// (NaN included in the rejects) and every amount must be non-negative;
// the panic names the field.
func TestNewInjectorRejectsBadOpts(t *testing.T) {
	eng := sim.New(1)
	cases := []struct {
		field string
		opts  Opts
	}{
		{"DuplicateProb", Opts{DuplicateProb: 1.5}},
		{"DuplicateProb", Opts{DuplicateProb: -2}},
		{"DelayProb", Opts{DelayProb: math.NaN()}},
		{"LossProb", Opts{LossProb: 1.5}},
		{"LossProb", Opts{LossProb: math.Inf(1)}},
		{"BurstProb", Opts{BurstProb: -0.1, BurstLen: 2}},
		{"DuplicateDelay", Opts{DuplicateDelay: -time.Second}},
		{"MaxDelay", Opts{MaxDelay: -1}},
		{"BurstLen", Opts{BurstLen: -1}},
		{"MaxFaults", Opts{MaxFaults: -1}},
		{"BurstLen", Opts{BurstProb: 0.1}},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if msg == "" || !strings.Contains(msg, tc.field) {
					t.Errorf("%+v: panic %q, want one naming %s", tc.opts, msg, tc.field)
				}
			}()
			NewInjector(eng, tc.opts, 2)
		}()
	}

	valid := allFaults
	valid.DuplicateProb, valid.LossProb, valid.MaxFaults = 0, 1, 7
	NewInjector(eng, valid, 2)
	NewInjector(eng, Opts{}, 2)
}

// TestDrawsIndependentOfMaxFaults: the fault budget changes which faults
// fire, never how many random numbers an attempt consumes — so the
// engine's random stream after the same traffic is identical at every
// MaxFaults.
func TestDrawsIndependentOfMaxFaults(t *testing.T) {
	next := func(maxFaults int) int64 {
		opts := allFaults
		opts.MaxFaults = maxFaults
		r := newRig(3, 3, opts)
		for i := 0; i < 60; i++ {
			r.send(t, 0, ring.NodeID(1+i%2), byte(i))
			if i%10 == 0 {
				r.send(t, 1, ring.Broadcast, byte(i))
			}
		}
		r.run(t)
		if maxFaults > 0 && r.inj.Stats().Spent > maxFaults {
			t.Fatalf("MaxFaults %d: spent %d", maxFaults, r.inj.Stats().Spent)
		}
		return r.eng.Rand().Int63()
	}
	want := next(0)
	for _, mf := range []int{1, 5} {
		if got := next(mf); got != want {
			t.Errorf("random stream after MaxFaults %d diverged from MaxFaults 0", mf)
		}
	}
}

// TestBroadcastCopiesNeverDelayed: with delay and late duplication
// certain, point-to-point copies are postponed but every broadcast copy
// (duplicates included) lands at the transmission's end.
func TestBroadcastCopiesNeverDelayed(t *testing.T) {
	opts := Opts{DelayProb: 1, MaxDelay: time.Second, DuplicateProb: 1, DuplicateDelay: time.Second}
	r := newRig(5, 4, opts)
	r.send(t, 0, ring.Broadcast, 0)
	r.run(t)
	end := r.at[1][0]
	for id := ring.NodeID(1); id < 4; id++ {
		if len(r.at[id]) != 2 {
			t.Fatalf("node %d received %d copies, want 2", id, len(r.at[id]))
		}
		for _, at := range r.at[id] {
			if at != end {
				t.Errorf("node %d broadcast copy at %v, want %v", id, at, end)
			}
		}
	}
	if st := r.inj.Stats(); st.Delays != 0 || st.Dups != 3 {
		t.Errorf("broadcast stats = %+v, want 0 delays, 3 dups", st)
	}

	// The same options do postpone a point-to-point frame.
	r = newRig(5, 4, opts)
	r.send(t, 0, 1, 0)
	r.run(t)
	if st := r.inj.Stats(); st.Delays != 1 {
		t.Errorf("point-to-point stats = %+v, want 1 delay", st)
	}
}

// TestBurstDropsOneReceiver: a burst makes one receiver deaf for exactly
// BurstLen consecutive deliveries while the others keep receiving. At
// this seed exactly one burst starts, on traffic alternating between
// two receivers.
func TestBurstDropsOneReceiver(t *testing.T) {
	const burstLen = 4
	r := newRig(7, 3, Opts{BurstProb: 0.02, BurstLen: burstLen})
	const sends = 80
	for i := 0; i < sends; i++ {
		r.send(t, 0, ring.NodeID(1+i%2), byte(i))
	}
	r.run(t)
	if st := r.inj.Stats(); st.BurstDrops != burstLen || st.Drops != 0 {
		t.Fatalf("stats = %+v, want exactly one burst of %d", st, burstLen)
	}
	if nws := r.nw.Stats(); nws.Dropped != burstLen {
		t.Fatalf("ring Dropped = %d, want %d", nws.Dropped, burstLen)
	}
	// One receiver lost a consecutive run of its deliveries; the other
	// lost none.
	deaf, heard := ring.NodeID(1), ring.NodeID(2)
	if len(r.got[1]) == sends/2 {
		deaf, heard = 2, 1
	}
	if len(r.got[heard]) != sends/2 {
		t.Fatalf("node %d received %d, want all %d", heard, len(r.got[heard]), sends/2)
	}
	if len(r.got[deaf]) != sends/2-burstLen {
		t.Fatalf("node %d received %d, want %d", deaf, len(r.got[deaf]), sends/2-burstLen)
	}
	var missing []int
	j := 0
	for seq := int(deaf) - 1; seq < sends; seq += 2 {
		if j < len(r.got[deaf]) && int(r.got[deaf][j]) == seq {
			j++
			continue
		}
		missing = append(missing, seq)
	}
	for k := 1; k < len(missing); k++ {
		if missing[k] != missing[k-1]+2 {
			t.Fatalf("node %d lost non-consecutive deliveries %v", deaf, missing)
		}
	}
}

// TestDigestReplay: equal seeds inject identical fault schedules, and a
// different seed injects a different one.
func TestDigestReplay(t *testing.T) {
	digest := func(seed int64) uint64 {
		r := newRig(seed, 3, allFaults)
		for i := 0; i < 100; i++ {
			r.send(t, ring.NodeID(i%3), ring.NodeID((i+1)%3), byte(i))
		}
		r.run(t)
		return r.inj.Digest()
	}
	a, b, c := digest(11), digest(11), digest(12)
	if a != b {
		t.Fatalf("same seed, digests %x vs %x", a, b)
	}
	if a == c {
		t.Fatalf("seeds 11 and 12 share digest %x", a)
	}
}

// TestLossInjectionDropsDeterministically: independent loss alone, at
// one seed, drops the same deliveries every run, and every attempt is
// either delivered or dropped.
func TestLossInjectionDropsDeterministically(t *testing.T) {
	run := func() (ring.Stats, Stats) {
		r := newRig(99, 2, Opts{LossProb: 0.5})
		for i := 0; i < 200; i++ {
			r.send(t, 0, 1, byte(i))
		}
		r.run(t)
		return r.nw.Stats(), r.inj.Stats()
	}
	a, ca := run()
	b, cb := run()
	if a != b || ca != cb {
		t.Fatalf("same seed produced different loss patterns: %+v vs %+v", a, b)
	}
	if a.Dropped == 0 || a.Delivered == 0 {
		t.Fatalf("expected both drops and deliveries at p=0.5: %+v", a)
	}
	if a.Dropped+a.Delivered != 200 || a.Dropped != ca.Drops {
		t.Fatalf("drops %d + deliveries %d != 200, or chaos drops %d differ", a.Dropped, a.Delivered, ca.Drops)
	}
}
