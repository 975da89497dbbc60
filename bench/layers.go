package main

import (
	"fmt"
	"sort"

	"smallworld/overlaynet"
)

// layerStats are the traced spans folded per kind.
type layerStats struct {
	spans []span
	self  []int64
	dur   [numSpanKinds]hist
	selfH [numSpanKinds]hist
}

func foldSpans(spans []span) *layerStats {
	ls := &layerStats{spans: spans, self: selfTimes(spans)}
	for i, s := range spans {
		ls.dur[s.kind].add(s.end - s.start)
		ls.selfH[s.kind].add(ls.self[i])
	}
	return ls
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// finishTrace computes every per-layer metric that comes from spans and
// counters, writes the Chrome trace, and fills metrics no layer reported
// with 0. Workload-specific per-layer metrics are set before it runs.
func (r *run) finishTrace() error {
	tr := r.tr
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	ls := foldSpans(spans)
	c := &r.c
	us := func(v float64) float64 { return v / 1e3 }

	// overlaynet read path.
	r.set("overlaynet.route_us_p50", us(ls.dur[kRoute].quantile(0.5)))
	r.set("overlaynet.route_us_p99", us(ls.dur[kRoute].tail(0.99)))
	var replayNs, replayHops int64
	for _, s := range spans {
		if s.kind == kReplay {
			replayNs += s.end - s.start
			replayHops += int64(s.n)
		}
	}
	r.set("overlaynet.greedy_step_ns", ratio(replayNs, replayHops))
	r.set("overlaynet.hops_per_route", ratio(c.hops.Load(), c.routes.Load()))
	r.set("overlaynet.pin_ns", ls.dur[kPin].mean())

	// overlaynet robust routing.
	var robust int64
	for i := range c.outcomes {
		robust += c.outcomes[i].Load()
	}
	var first hist
	for _, s := range spans {
		if s.kind == kRobust && s.flag&flagFirstRoute != 0 {
			first.add(s.end - s.start)
		}
	}
	r.set("overlaynet.robust_route_self_us_p50", us(ls.selfH[kRobust].quantile(0.5)))
	r.set("overlaynet.robust_route_self_us_p99", us(ls.selfH[kRobust].tail(0.99)))
	r.set("overlaynet.robust_first_route_us_p50", us(first.quantile(0.5)))
	r.set("overlaynet.robust_retries_per_route", ratio(c.retries.Load(), robust))
	r.set("overlaynet.robust_degraded_frac", ratio(c.outcomes[overlaynet.DeliveredDegraded].Load(), robust))
	r.set("overlaynet.robust_unroutable_frac", ratio(c.outcomes[overlaynet.Unroutable].Load(), robust))
	r.set("overlaynet.robust_timeout_frac", ratio(c.outcomes[overlaynet.TimedOut].Load(), robust))

	// overlaynet writer.
	var pubEv, plainEv hist
	for _, s := range spans {
		if s.kind == kChurn {
			if s.flag&flagPublish != 0 {
				pubEv.add(s.end - s.start)
			} else {
				plainEv.add(s.end - s.start)
			}
		}
	}
	r.set("overlaynet.churn_self_us_p50", us(ls.selfH[kChurn].quantile(0.5)))
	r.set("overlaynet.churn_self_us_p99", us(ls.selfH[kChurn].tail(0.99)))
	r.set("overlaynet.publish_event_us_p50", us(pubEv.quantile(0.5)))
	r.set("overlaynet.plain_event_us_p50", us(plainEv.quantile(0.5)))

	// netmodel under the robust router.
	sends := c.netSends.Load()
	r.set("netmodel.sends_per_route", ratio(sends, robust))
	r.set("netmodel.send_ns", ls.dur[kNetSend].mean())
	r.set("netmodel.lost_frac", ratio(c.netLost.Load(), sends))
	r.set("netmodel.unreachable_frac", ratio(c.netUnreachable.Load(), sends))

	// wire and shard: only sharded lookups (client spans) use them.
	var queries int64
	if ls.dur[kClient].n > 0 {
		queries = c.routes.Load()
	}
	r.set("wire.send_ns_p50", ls.dur[kWireSend].quantile(0.5))
	r.set("wire.send_ns_p99", ls.dur[kWireSend].tail(0.99))
	r.set("wire.mailbox_wait_us_p50", us(ls.dur[kMailbox].quantile(0.5)))
	r.set("wire.mailbox_wait_us_p99", us(ls.dur[kMailbox].tail(0.99)))
	r.set("wire.frames_per_query", ratio(c.frames.Load(), queries))
	r.set("wire.bytes_per_query", ratio(c.frameBytes.Load(), queries))
	r.set("shard.query_handler_self_us", us(ls.selfH[kQueryH].mean()))
	r.set("shard.forward_handler_self_us", us(ls.selfH[kForwardH].mean()))
	r.set("shard.result_handler_us", us(ls.dur[kResultH].mean()))
	r.set("shard.client_wait_us", us(ls.selfH[kClient].mean()))
	r.set("shard.crossings_per_query", ratio(c.crossings.Load(), queries))
	var loadMax, loadSum, shards int64
	for i := range c.shardLoad {
		if v := c.shardLoad[i].Load(); v > 0 {
			loadMax, loadSum, shards = max(loadMax, v), loadSum+v, shards+1
		}
	}
	if loadSum > 0 {
		r.set("shard.load_max_over_mean", float64(loadMax)*float64(shards)/float64(loadSum))
	}
	if queries > 0 {
		cl, wi, sh, lookup := shardAccounting(ls)
		r.res.notes = append(r.res.notes, fmt.Sprintf(
			"sharded accounting: client %.3f + wire %.3f + shard %.3f = %.3f us, traced lookup mean %.3f us (%+.1f%%)",
			cl/1e3, wi/1e3, sh/1e3, (cl+wi+sh)/1e3, lookup/1e3, 100*((cl+wi+sh)/lookup-1)))
	}

	// store.
	r.set("store.put_self_us_p50", us(ls.selfH[kPut].quantile(0.5)))
	r.set("store.put_self_us_p99", us(ls.selfH[kPut].tail(0.99)))
	r.set("store.get_self_us_p50", us(ls.selfH[kGet].quantile(0.5)))
	r.set("store.get_self_us_p99", us(ls.selfH[kGet].tail(0.99)))
	r.set("store.scan_self_us_p50", us(ls.selfH[kScan].quantile(0.5)))
	r.set("store.scan_self_us_p99", us(ls.selfH[kScan].tail(0.99)))
	r.set("store.locate_us_p50", us(ls.dur[kLocate].quantile(0.5)))
	handover, lockFrac, lockWait := storeHandover(spans)
	r.set("store.handover_us_p50", us(handover.quantile(0.5)))
	r.set("store.handover_us_p99", us(handover.tail(0.99)))
	r.set("store.lock_wait_frac", lockFrac)
	r.set("store.lock_wait_us_p99", us(lockWait.tail(0.99)))
	r.set("store.scan_kvs_per_scan", ratio(c.scanKVs.Load(), c.scans.Load()))
	r.set("store.scan_cells_per_scan", ratio(c.scanCells.Load(), c.scans.Load()))
	r.set("store.hops_per_op", ratio(c.storeHops.Load(), c.storeOps.Load()))

	for _, m := range perLayer {
		if _, ok := r.res.metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
	r.res.notes = append(r.res.notes, fmt.Sprintf("spans recorded %d", len(spans)))
	if r.cfg.traceOut != "" {
		if err := writeChrome(r.cfg.traceOut, spans); err != nil {
			return err
		}
		r.res.notes = append(r.res.notes, "chrome trace written to "+r.cfg.traceOut)
	}
	return nil
}

// storeHandover folds the store's traced handovers: the handover time of
// each membership event (its handover spans summed), and how much of
// each traced store op's interval a handover span covered — the time the
// op waited on the store mutex behind a membership event.
func storeHandover(spans []span) (perEvent hist, lockFrac float64, lockWait hist) {
	perChurn := make(map[int32]int64)
	var ivs [][2]int64
	for _, s := range spans {
		if s.kind == kHandover {
			ivs = append(ivs, [2]int64{s.start, s.end})
			if s.parent >= 0 {
				perChurn[s.parent] += s.end - s.start
			}
		}
	}
	for _, d := range perChurn {
		perEvent.add(d)
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var covered, total int64
	for _, s := range spans {
		if s.kind == kPut || s.kind == kGet || s.kind == kScan {
			o := overlap(s.start, s.end, ivs)
			covered += o
			total += s.end - s.start
			lockWait.add(o)
		}
	}
	return perEvent, ratio(covered, total), lockWait
}

// shardAccounting splits the traced sharded lookups' mean latency into
// the mean self times of their client, wire and shard spans, in ns.
// The three add up to lookup when every span lies on the lookup's path.
func shardAccounting(ls *layerStats) (client, wire, shard, lookup float64) {
	roots := 0
	for i, s := range ls.spans {
		switch s.kind {
		case kClient:
			client += float64(ls.self[i])
			lookup += float64(s.end - s.start)
			roots++
		case kWireSend, kMailbox:
			wire += float64(ls.self[i])
		case kQueryH, kForwardH, kResultH:
			shard += float64(ls.self[i])
		}
	}
	if roots == 0 {
		return 0, 0, 0, 0
	}
	n := float64(roots)
	return client / n, wire / n, shard / n, lookup / n
}
