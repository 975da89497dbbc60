package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smallworld/xrand"
)

// The host this benchmark runs on is shared: its speed drifts by up to
// 2x over minutes as neighbours come and go, which would swamp any
// regression bound. An untraced run therefore interleaves calibration
// slices with each part of the run it times — between set-up builds,
// after every calEvery of the timed window's load, between chunks of the
// membership probe. A slice times two fixed reference kernels that this
// file builds itself, so no change to the library can move them: greedy
// walks over a small-world ring (dependent loads and branches, like a
// route) and goroutine handoffs over a channel (like a frame crossing
// the wire). A time metric is scaled by the geometric mean of
// refWalkNs/walk and refHandoffNs/handoff over the slices of its part,
// so times are reported at the reference host's speed; raw times are
// printed as notes. Of the kernels tried (walks, handoffs, bulk copies),
// this pair left the smallest run-to-run spread across the workloads.
const (
	calEvery   = 500 * time.Millisecond
	calWalk    = 30 * time.Millisecond
	calHandoff = 10 * time.Millisecond
)

// The kernels' costs on the reference host (2-vCPU Xeon, 105 MB L3,
// quiet): the speed reported times refer to.
const (
	refWalkNs    = 2500.0
	refHandoffNs = 450.0
)

// Parts of a run, each scaled by its own calibration slices.
const (
	phaseSetup  = "setup"
	phaseWindow = "window"
	phaseProbe  = "probe"
	phaseChurn  = "churn" // the window or the probe, whichever timed the churn
)

// calSample is one calibration slice: ns per reference walk and ns per
// handoff round trip.
type calSample struct{ walk, handoff float64 }

// calibrateInto records one calibration slice for part when the run is
// untraced (a traced run reports no scaled metrics).
func (r *run) calibrateInto(part string) {
	if r.tr == nil {
		r.cal[part] = append(r.cal[part], calSample{walk: timeWalks(calWalk), handoff: timeHandoffs(calHandoff)})
	}
}

// hostFactor returns the factor a time measured in part is multiplied
// by (a rate divided by), and false when the part has no slices.
func (r *run) hostFactor(part string) (float64, string, bool) {
	ss := r.cal[part]
	if len(ss) == 0 {
		return 0, "", false
	}
	var walk, handoff float64
	for _, s := range ss {
		walk += s.walk
		handoff += s.handoff
	}
	walk /= float64(len(ss))
	handoff /= float64(len(ss))
	f := math.Sqrt(refWalkNs / walk * refHandoffNs / handoff)
	return f, fmt.Sprintf("%s: %d slices, walk %.1f ns, handoff %.1f ns, factor %.4f", part, len(ss), walk, handoff, f), true
}

// scaleToReference reports the run's end-to-end times at the reference
// host speed, each by the calibration slices of the part of the run it
// was measured in, and notes the raw values and the factors.
func (r *run) scaleToReference() {
	for _, part := range []string{phaseSetup, phaseWindow, phaseProbe} {
		if _, note, ok := r.hostFactor(part); ok {
			r.res.notes = append(r.res.notes, "calibration "+note)
		}
	}
	for _, m := range endToEnd {
		part := m.phase
		if part == phaseChurn {
			part = r.churnCal
		}
		v, ok := r.res.metrics[m.name]
		factor, _, calibrated := r.hostFactor(part)
		if !ok || !calibrated {
			continue
		}
		r.res.notes = append(r.res.notes, fmt.Sprintf("raw %s %.4f %s", m.name, v, m.unit))
		if m.higher {
			r.res.metrics[m.name] = v / factor
		} else {
			r.res.metrics[m.name] = v * factor
		}
	}
}

// refGraph is the reference walk's ring: sorted keys in [0,1), each node
// linked to its two ring neighbours and to one node at each power-of-two
// rank distance (jittered) in either direction, in CSR form.
type refGraph struct {
	keys []float64
	off  []int32
	adj  []int32
}

// refNodes sizes the reference ring: 2^18 nodes, a ~35 MB adjacency that
// spills out of the per-core caches as the workloads' graphs do.
const refNodes = 1 << 18

func newRefGraph(n int) *refGraph {
	rng := xrand.New(0x5eed)
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	sort.Float64s(keys)
	g := &refGraph{keys: keys, off: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		g.adj = append(g.adj, int32((i+1)%n), int32((i+n-1)%n))
		for step := 2; step < n/2; step *= 2 {
			j := step + rng.Intn(step/2)
			g.adj = append(g.adj, int32((i+j)%n), int32((i-j+n)%n))
		}
		g.off[i+1] = int32(len(g.adj))
	}
	return g
}

func ringDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 0.5 {
		d = 1 - d
	}
	return d
}

// walk routes greedily from src toward target and returns the hops.
func (g *refGraph) walk(src int, target float64) int {
	cur, d := src, ringDist(g.keys[src], target)
	hops := 0
	for {
		best, bestD := -1, d
		for _, v := range g.adj[g.off[cur]:g.off[cur+1]] {
			if dv := ringDist(g.keys[v], target); dv < bestD {
				best, bestD = int(v), dv
			}
		}
		if best < 0 {
			return hops
		}
		cur, d = best, bestD
		hops++
	}
}

// refGraphOnce builds the reference ring once per process.
var refGraphOnce = sync.OnceValue(func() *refGraph { return newRefGraph(refNodes) })

// walkSink keeps the reference walks from being optimised away.
var walkSink atomic.Int64

// timeWalks runs reference walks on every CPU at once for d and returns
// the mean ns per walk. The walks' sources and targets are fixed, so
// every slice measures the same work.
func timeWalks(d time.Duration) float64 {
	g := refGraphOnce()
	threads := runtime.GOMAXPROCS(0)
	perWalk := make([]float64, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := xrand.New(uint64(t) + 1)
			n, hops := 0, 0
			t0 := time.Now()
			for time.Since(t0) < d {
				for i := 0; i < 256; i++ {
					hops += g.walk(rng.Intn(len(g.keys)), rng.Float64())
				}
				n += 256
			}
			perWalk[t] = float64(time.Since(t0).Nanoseconds()) / float64(n)
			walkSink.Add(int64(hops))
		}(t)
	}
	wg.Wait()
	var sum float64
	for _, v := range perWalk {
		sum += v
	}
	return sum / float64(threads)
}

// timeHandoffs bounces a value between two goroutines over unbuffered
// channels for d and returns the mean ns per round trip.
func timeHandoffs(d time.Duration) float64 {
	a, b := make(chan int), make(chan int)
	go func() {
		for v := range a {
			b <- v
		}
		close(b)
	}()
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < 100; i++ {
			a <- i
			<-b
		}
		n += 100
	}
	el := time.Since(t0)
	close(a)
	<-b // the echo goroutine has exited
	return float64(el.Nanoseconds()) / float64(n)
}

// gate pauses the load for a calibration slice: participants (load
// workers, the churn generator) enter before each request and exit after
// it, and pause waits until none is inside. enter costs one atomic load
// and one store to the participant's own cache line.
type gate struct {
	hold  atomic.Bool
	mu    sync.Mutex
	open  *sync.Cond
	parts []*participant
}

type participant struct {
	active atomic.Int32
	_      [60]byte // keep participants on separate cache lines
}

func newGate() *gate {
	g := &gate{}
	g.open = sync.NewCond(&g.mu)
	return g
}

// join registers a participant; call before the load starts.
func (g *gate) join() *participant {
	p := &participant{}
	g.parts = append(g.parts, p)
	return p
}

// enter blocks while a calibration slice runs and returns how long it
// blocked, in ns.
func (g *gate) enter(p *participant) (waited int64) {
	for {
		if g.hold.Load() {
			t := now()
			g.mu.Lock()
			for g.hold.Load() {
				g.open.Wait()
			}
			g.mu.Unlock()
			waited += now() - t
		}
		p.active.Store(1)
		// Sequentially consistent atomics: either pause sees active, or
		// this load sees hold and the participant backs out.
		if !g.hold.Load() {
			return waited
		}
		p.active.Store(0)
	}
}

func (g *gate) exit(p *participant) { p.active.Store(0) }

// pause closes the gate and waits for every participant to exit.
func (g *gate) pause() {
	g.hold.Store(true)
	for _, p := range g.parts {
		for p.active.Load() != 0 {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

func (g *gate) resume() {
	g.mu.Lock()
	g.hold.Store(false)
	g.open.Broadcast()
	g.mu.Unlock()
}
