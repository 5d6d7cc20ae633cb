package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The load model: a closed loop.  epserved's callers are programs that
// wait for the reply, so each client goroutine sends its next request
// only after the previous one completed; a slower server receives less
// load.  Clients claim op indexes from one shared counter, so the op
// list is executed in order whatever the interleaving.
//
// When the fleet has a host-speed control (see control.go), the loop
// time-slices: the first controlSlice of every controlCycle since the
// start, a client makes control round trips instead of claiming ops.
// Both clients read the same clock, so the slices coincide; an op that
// is in flight when a slice begins finishes first.

// clients is the number of client goroutines and keep-alive
// connections: the reference host has two cores.
const clients = 2

// driveResult is one closed-loop run.
type driveResult struct {
	log       clientLog // merged over clients
	attempted int
	// loop is the closed loop's duration and elapsed the part of it the
	// workload's ops had: loop less the time a client spent in control
	// slices (mean over clients).
	loop, elapsed time.Duration
	// ctlMS are the control ops' durations and ctlEndMS when each ended,
	// in ms since the loop began.
	ctlMS, ctlEndMS []float64
}

// drive runs the closed loop with n client goroutines until d has
// passed or maxOps ops were issued (0 = no op limit), whichever comes
// first, and returns the merged log.  Every claimed op is executed and
// checked; a transport or API error is a failed op.
func drive(ctx context.Context, e *env, n int, d time.Duration, maxOps int) driveResult {
	inst := e.inst
	logs := make([]clientLog, n)
	ctlMS, ctlEndMS := make([][]float64, n), make([][]float64, n)
	ctlTime := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			var (
				ms, ends []float64
				busy     time.Duration
			)
			defer func() { ctlMS[c], ctlEndMS[c], ctlTime[c] = ms, ends, busy }()
			for now := start; now.Before(deadline); now = time.Now() {
				if e.ctl != nil && now.Sub(start)%controlCycle < controlSlice {
					if err := e.ctl.op(); err != nil {
						l.fail("control: %v", err)
					}
					end := time.Now()
					ms = append(ms, float64(end.Sub(now))/float64(time.Millisecond))
					ends = append(ends, float64(end.Sub(start))/float64(time.Millisecond))
					busy += end.Sub(now)
					continue
				}
				i := int(next.Add(1) - 1)
				if !inst.has(i) || (maxOps > 0 && i >= maxOps) {
					return
				}
				o := inst.gen(i)
				t0 := time.Now()
				out, err := e.exec(ctx, o)
				t1 := time.Now()
				l.latMS = append(l.latMS, float64(t1.Sub(t0))/float64(time.Millisecond))
				l.endMS = append(l.endMS, float64(t1.Sub(start))/float64(time.Millisecond))
				l.classes = append(l.classes, o.Class)
				if err != nil {
					l.fail("op %d: %s: %v", i, o.Class, err)
					continue
				}
				l.check(inst, i, o, out)
			}
		}(c)
	}
	wg.Wait()
	res := driveResult{loop: time.Since(start)}
	res.elapsed = res.loop
	for c := range logs {
		res.attempted += len(logs[c].latMS)
		res.log.merge(&logs[c])
		res.ctlMS = append(res.ctlMS, ctlMS[c]...)
		res.ctlEndMS = append(res.ctlEndMS, ctlEndMS[c]...)
		res.elapsed -= ctlTime[c] / time.Duration(n)
	}
	return res
}
