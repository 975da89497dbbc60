package overlaynet

import (
	"context"
	"sync/atomic"

	"smallworld/dist"
	"smallworld/keyspace"
	"smallworld/xrand"
)

func init() {
	Register(Info{
		Name:        "protocol",
		Description: "live Section 4.2 protocol: metered joins and repairs, walk-estimated f unless Oracle (Dynamic)",
		Build: func(ctx context.Context, opts Options) (Overlay, error) {
			// The protocol is ring-native. With the oracle, peers draw
			// links by mass under f; without it, keys still follow f but
			// each peer draws by mass under its own estimate of f, which
			// starts uniform (key distance) and is learnt in refinement
			// rounds.
			opts.Topology = keyspace.Ring
			name := "smallworld-uniform"
			if opts.Oracle {
				name = "smallworld-skewed"
			}
			dyn, err := NewIncremental(ctx, name, opts)
			if err != nil {
				return nil, err
			}
			o := dyn.(*incrementalOverlay)
			o.kind = "protocol"
			rng := xrand.New(opts.Seed ^ protocolSeedSalt)
			if !opts.Oracle {
				// Each peer re-draws its first links under its own
				// knowledge, unmetered: its estimate of N, from the gap
				// to its flanks, sets its shortest link. The
				// constructor's one global 1/N routes measurably worse
				// under skew (E11's round 0, E19's estimated row).
				o.est = newSlotEstimates(o, rng)
				for u := range o.N() {
					o.redraw(int32(u))
				}
			}
			o.msgs = &messageMeter{rng: rng, r: liveRouter{o: o}}
			return &protocolOverlay{o}, nil
		},
	})
}

const (
	// protocolSeedSalt derives the protocol stream (bootstrap slots,
	// walk steps, reservoir replacement) from Options.Seed, apart from
	// the engine's draw stream, so metering and estimation never shift
	// a link draw.
	protocolSeedSalt = 0x2545f4914f6cdd1d

	estimateBins  = 24  // histogram resolution of a slot's estimate of f
	estimateCap   = 512 // bound on a slot's reservoir of observed keys
	refineWalks   = 16  // random walks per slot in a refinement round
	refineWalkLen = 6   // hops per refinement walk
)

// protocolOverlay is the "protocol" entry: the incremental writer with
// the Section 4.2 protocol's message metering (Messenger) and its
// refinement round (Maintainer). Joins, leaves, snapshots and
// ownership narration are the embedded engine's own.
type protocolOverlay struct {
	*incrementalOverlay
}

// messageMeter counts protocol traffic in overlay hops. maint is the
// membership share: locate routes, link-draw routes and refinement
// walks. total adds the routes of the entry's routers, which may run
// concurrently with each other (never with Join or Leave).
type messageMeter struct {
	total, maint atomic.Int64
	rng          *xrand.Stream
	r            liveRouter
}

// add meters one membership route or walk of hops hops.
func (m *messageMeter) add(hops int) {
	m.total.Add(int64(hops))
	m.maint.Add(int64(hops))
}

// locate meters a join's route to its own identifier k from a bootstrap
// slot drawn from the protocol stream, on the rows before the splice,
// and returns that slot.
func (o *incrementalOverlay) locate(k keyspace.Key) int32 {
	boot := int32(o.msgs.rng.Intn(o.N()))
	o.msgs.add(o.msgs.r.Route(int(boot), k).Hops)
	return boot
}

// meterDraw meters the route slot u sends toward a drawn link key. The
// route leaves through the links u holds so far, as a joining peer's
// queries do.
func (o *incrementalOverlay) meterDraw(u int32, key keyspace.Key) {
	o.msgs.add(o.msgs.r.Route(int(u), key).Hops)
}

// Messages implements Messenger. Building meters nothing, so both
// counters start at 0.
func (o *protocolOverlay) Messages() (total, maintenance int64) {
	return o.msgs.total.Load(), o.msgs.maint.Load()
}

// NewRouter returns a live router whose route hops add to the total
// message count.
func (o *protocolOverlay) NewRouter() Router {
	return &meteredRouter{r: liveRouter{o: o.incrementalOverlay}, m: o.msgs}
}

type meteredRouter struct {
	r liveRouter
	m *messageMeter
}

func (r *meteredRouter) Route(src int, target keyspace.Key) Result {
	res := r.r.Route(src, target)
	r.m.total.Add(int64(res.Hops))
	return res
}

// Maintain implements Maintainer with one refinement round. Slot by
// slot, a peer without the oracle samples the overlay by random walks
// and re-fits its estimates of f and N; then every peer drops its long
// links and re-draws log2 N of them by mass under its measure.
// Membership is unchanged, so node indices stay valid.
func (o *protocolOverlay) Maintain(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w := o.incrementalOverlay
	for u := range w.N() {
		if w.est != nil {
			w.est.refine(w, int32(u))
		}
		w.redraw(int32(u))
	}
	return nil
}

// redraw replaces slot u's long links with log2 N fresh draws under its
// link measure. u leaves the in-list of every row target (drop finds
// nothing for a neighbour u does not also link), and its row shrinks to
// its neighbours before the draws.
func (o *incrementalOverlay) redraw(u int32) {
	for _, t := range o.adj.Row(int(u)) {
		o.in.drop(t, u)
	}
	f := o.flanks(o.posOf(u))
	o.row = insertSorted(insertSorted(o.row[:0], f[0]), f[1])
	o.adj.setRow(int(u), o.row)
	o.sampleInto(u, o.degree(o.N()))
}

// slotEstimates is each slot's local knowledge when peers do not know
// f: a bounded reservoir of identifiers it has observed, the histogram
// estimate of f fitted to it, and the estimate of N that follows from
// the estimated mass between its key-order neighbours. Slices are
// indexed by slot and follow the engine's slot moves.
type slotEstimates struct {
	rng  *xrand.Stream // the protocol stream
	seen [][]keyspace.Key
	fit  []*dist.Piecewise
	size []float64
}

// newSlotEstimates starts every slot with an empty reservoir: the fit
// is uniform, the skew-oblivious start.
func newSlotEstimates(o *incrementalOverlay, rng *xrand.Stream) *slotEstimates {
	n := o.N()
	e := &slotEstimates{
		rng:  rng,
		seen: make([][]keyspace.Key, n),
		fit:  make([]*dist.Piecewise, n),
		size: make([]float64, n),
	}
	for u := range n {
		e.refit(o, int32(u))
	}
	return e
}

// join gives a newcomer its first knowledge: the identifiers of its
// flanks f and of the bootstrap peer its locate route started from.
func (e *slotEstimates) join(o *incrementalOverlay, id, boot int32, f [2]int32) {
	e.seen = append(e.seen, nil)
	e.fit = append(e.fit, nil)
	e.size = append(e.size, 0)
	e.observe(id, o.Key(int(f[0])))
	e.observe(id, o.Key(int(f[1])))
	e.observe(id, o.Key(int(boot)))
	e.refit(o, id)
}

// remove drops slot u's state and moves the last slot's into its place,
// as Leave moves the last slot.
func (e *slotEstimates) remove(u int32) {
	last := len(e.seen) - 1
	e.seen[u], e.fit[u], e.size[u] = e.seen[last], e.fit[last], e.size[last]
	e.seen, e.fit, e.size = e.seen[:last], e.fit[:last], e.size[:last]
}

// observe records identifier k in slot u's reservoir. Once the
// reservoir is full, k replaces a random entry with probability
// cap/(cap+1).
func (e *slotEstimates) observe(u int32, k keyspace.Key) {
	if len(e.seen[u]) < estimateCap {
		e.seen[u] = append(e.seen[u], k)
		return
	}
	if i := e.rng.Intn(estimateCap + 1); i < estimateCap {
		e.seen[u][i] = k
	}
}

// refine adds the endpoints of refineWalks random walks from u to its
// reservoir and re-fits its estimates.
func (e *slotEstimates) refine(o *incrementalOverlay, u int32) {
	for range refineWalks {
		cur := u
		for range refineWalkLen {
			row := o.adj.Row(int(cur))
			cur = row[e.rng.Intn(len(row))]
		}
		e.observe(u, o.Key(int(cur)))
	}
	o.msgs.add(refineWalks * refineWalkLen)
	e.refit(o, u)
}

// refit fits slot u's estimate of f to its reservoir and estimates N
// from the estimated mass between its key-order neighbours, 2/N in
// expectation (at least 2).
func (e *slotEstimates) refit(o *incrementalOverlay, u int32) {
	f := dist.Estimate(e.seen[u], estimateBins)
	nb := o.flanks(o.posOf(u))
	gap := f.CDF(float64(o.Key(int(nb[1])))) - f.CDF(float64(o.Key(int(nb[0]))))
	if gap < 0 {
		gap++
	}
	e.fit[u], e.size[u] = f, 2
	if gap > 0 && 2/gap > 2 {
		e.size[u] = 2 / gap
	}
}
