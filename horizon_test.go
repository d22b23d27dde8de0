package ivy

import (
	"errors"
	"regexp"
	"testing"
	"time"
)

// TestHorizonReportNamesParkedWork pins the words of a hang report: the
// fiber names and park reasons are rendered only when the report is
// built, so this checks that what it prints is what the fibers parked
// on. Node 1 takes page 0 from node 0 and then crashes; main's write
// fault on node 0 holds page 0's lock while it hunts for the lost owner,
// and r2's read fault on node 2 is served on node 0 by a fiber queued
// behind that lock. e2 waits on an eventcount nobody advances.
func TestHorizonReportNamesParkedWork(t *testing.T) {
	c := New(Config{Processors: 3, Seed: 1, Horizon: 6 * time.Second,
		Chaos: &ChaosOpts{Crashes: []NodeCrash{{Node: 1, At: 2 * time.Second, Downtime: time.Hour}}}})
	err := c.Run(func(p *Proc) {
		addr := p.MustMalloc(4096)
		ec := p.NewEventcount(4)
		p.CreateOn(2, func(q *Proc) { ec.Wait(q, 1) }, WithName("e2"))
		p.CreateOn(1, func(q *Proc) { q.WriteU64(addr, 1) }, WithName("w1"))
		p.Sleep(time.Second)
		p.CreateOn(2, func(q *Proc) {
			q.Sleep(3 * time.Second)
			_ = q.ReadU64(addr)
		}, WithName("r2"))
		p.Sleep(2 * time.Second)
		p.WriteU64(addr, 2)
	})
	if !errors.Is(err, ErrHorizon) {
		t.Fatalf("Run = %v, want ErrHorizon", err)
	}
	for _, want := range []string{
		`null1 \(call WorkReq -> node 2\)`,                               // remop Call
		`r2 \(call ReadFaultReq -> node 0 \(redirectable\)\)`,            // remop CallRedirect
		`main \(broadcast-any OwnerQuery\)`,                              // remop BroadcastAny
		`node0/ReadFaultReq#\d+ \(page 0 lock on node 0\)`,               // served fiber, mmu page lock
		`run-watcher \(joining main\)`,                                   // proc Join
		`e2 \(ec wait 0x[0-9a-f]+ for 1\)`,                               // ec Wait via proc Suspend
		`null0 \(idle \(null process\)\)`,                                // constant reason
		`held page locks: \[node0/page0 by "main" node2/page0 by "r2"\]`, // mmu LockHolder
	} {
		if !regexp.MustCompile(want).MatchString(err.Error()) {
			t.Errorf("report lacks %s:\n%v", want, err)
		}
	}
}
