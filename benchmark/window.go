package main

import (
	"math"
	"time"
)

// A run is judged window by window.  The host's episodes (control.go)
// begin and end inside runs too, and the worst of them stall a vCPU for
// milliseconds at a time: a run's overall p99 is then the episode's, and
// a run's overall control median is whichever state held for more than
// half of it while its throughput is a mix of both.  So the measured
// window is cut into equal windows of whole seconds, as short as leaves
// each windowMinOps ops (a p99 needs a thousand samples to have ten
// beyond it), every window's metrics are scaled by that window's own
// control, and the run reports the median window (for p99 the lower
// quartile; see medianWindow).  A workload too slow for two such windows
// is one window: the whole run.  What this gives up: a stall of the
// program's own that visits too few of the windows is not in the reported
// p99; runs[workload].raw keeps the whole run's p99 for that.
const windowMinOps = 1000

// cpuSampler reads the fleet's CPU time once a second through a run, so
// that any window of whole seconds has its own CPU time.
type cpuSampler struct {
	fleet *fleet
	start time.Time
	stopC chan struct{}
	done  chan struct{}
	at    []cpuSample
	err   error
}

// cpuSample is the fleet's CPU time so far, atMS into the run.
type cpuSample struct {
	atMS float64
	cpu  time.Duration
}

func startCPUSampler(f *fleet) *cpuSampler {
	s := &cpuSampler{fleet: f, start: time.Now(), stopC: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stopC:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *cpuSampler) sample() {
	d, err := s.fleet.cpu()
	if err != nil && s.err == nil {
		s.err = err
	}
	s.at = append(s.at, cpuSample{float64(time.Since(s.start)) / float64(time.Millisecond), d})
}

// stop ends the sampler and returns its samples with one more, taken
// now, at the end.
func (s *cpuSampler) stop() ([]cpuSample, error) {
	close(s.stopC)
	<-s.done
	s.sample()
	return s.at, s.err
}

// cpuAt is the fleet's CPU time atMS into the run: the reading there, or
// between the two readings around it (a late tick does not shift the
// windows after it).
func cpuAt(samples []cpuSample, atMS float64) time.Duration {
	for i, s := range samples {
		if s.atMS >= atMS {
			if i == 0 || s.atMS == atMS {
				return s.cpu
			}
			p := samples[i-1]
			return p.cpu + time.Duration(float64(s.cpu-p.cpu)*(atMS-p.atMS)/(s.atMS-p.atMS))
		}
	}
	return samples[len(samples)-1].cpu
}

// windowStats are one window's time-based metrics as the clock read
// them, and its speed factor.
type windowStats struct {
	opsPerS, p50MS, p99MS, cpuMSPerOp, speed float64
}

// windowSeconds is the length of a run's windows: the fewest whole
// seconds that hold windowMinOps ops at the run's rate, at most the run.
func windowSeconds(ops int, loop time.Duration) int {
	whole := int(loop / time.Second)
	if whole < 1 || ops < 1 {
		return 1
	}
	l := int(math.Ceil(windowMinOps * loop.Seconds() / float64(ops)))
	if l > whole {
		l = whole
	}
	return l
}

// windowsOf cuts a closed-loop run into windows and measures each.  cpu
// are the sampler's readings.  The last window takes what is left of the
// run after the whole windows.
func windowsOf(res driveResult, kind controlKind, nClients int, cpu []cpuSample) []windowStats {
	l := windowSeconds(res.attempted, res.loop)
	n := int(res.loop/time.Second) / l
	if n < 1 {
		n = 1
	}
	index := func(endMS float64) int {
		k := int(endMS/1000) / l
		if k >= n {
			k = n - 1
		}
		return k
	}
	lat := make([][]float64, n)
	for i, end := range res.log.endMS {
		k := index(end)
		lat[k] = append(lat[k], res.log.latMS[i])
	}
	ctl := make([][]float64, n)
	ctlBusy := make([]float64, n) // ms, summed over clients
	for i, end := range res.ctlEndMS {
		k := index(end)
		ctl[k] = append(ctl[k], res.ctlMS[i])
		ctlBusy[k] += res.ctlMS[i]
	}
	out := make([]windowStats, 0, n)
	for k := 0; k < n; k++ {
		from, to := float64(k*l)*1000, float64((k+1)*l)*1000 // ms
		if k == n-1 {
			to = float64(res.loop) / float64(time.Millisecond)
		}
		length := to - from
		sorted := sortedCopy(lat[k])
		ops := float64(len(sorted))
		out = append(out, windowStats{
			opsPerS:    share(ops*1000, length-ctlBusy[k]/float64(nClients)),
			p50MS:      percentile(sorted, 50),
			p99MS:      percentile(sorted, 99),
			cpuMSPerOp: share(float64(cpuAt(cpu, to)-cpuAt(cpu, from))/float64(time.Millisecond), ops),
			speed:      hostSpeed(kind, ctl[k]),
		})
	}
	return out
}

// medianWindow reports, for each time-based metric, the median over the
// windows of the clock's reading (raw) and of the reading in
// quiet-reference-host time (scaled): a host running at speed 0.8
// completes 0.8 of the ops and takes 1/0.8 of the time.  p99_ms alone is
// the windows' lower quartile, not their median: a stalled vCPU only
// ever adds to a tail, it lands in the p99 whole where it merely nudges a
// median, and in the host's worst quarters of an hour more than half of
// the windows have one.
func medianWindow(ws []windowStats) (raw, scaled map[string]float64, speed float64) {
	raw, scaled = make(map[string]float64), make(map[string]float64)
	col := func(name string, pick func(xs []float64) float64, read func(w windowStats) float64, scale func(v, s float64) float64) {
		var r, s []float64
		for _, w := range ws {
			r = append(r, read(w))
			s = append(s, scale(read(w), w.speed))
		}
		raw[name], scaled[name] = pick(r), pick(s)
	}
	lowerQuartile := func(xs []float64) float64 { return percentile(sortedCopy(xs), 25) }
	div := func(v, s float64) float64 { return v / s }
	mul := func(v, s float64) float64 { return v * s }
	col("ops_per_s", median, func(w windowStats) float64 { return w.opsPerS }, div)
	col("p50_ms", median, func(w windowStats) float64 { return w.p50MS }, mul)
	col("p99_ms", lowerQuartile, func(w windowStats) float64 { return w.p99MS }, mul)
	col("server_cpu_ms_per_op", median, func(w windowStats) float64 { return w.cpuMSPerOp }, mul)
	var speeds []float64
	for _, w := range ws {
		speeds = append(speeds, w.speed)
	}
	return raw, scaled, median(speeds)
}
