package main

import (
	"fmt"
	"math"
	"strings"
)

// opSpan names the root span of each workload's traced op.
var opSpan = map[string]string{
	"explore": "op.explore", "serve_reads": "op.serve_reads",
	"update_query": "op.update", "reopen": "op.reopen",
}

// perLayer computes the per-layer metrics: counts from the untraced HTTP
// run's /stats deltas, times from the traced replay.
func perLayer(wl *workload, rec *recorder, iters []float64, acc *statsAcc, lr *replayResult, serverCPU, clientCPU float64, meta *Meta) map[string]Metric {
	m := map[string]Metric{}
	put := func(name, unit string, v float64) { m[name] = Metric{Value: v, Unit: unit} }

	spans := measured(lr.tr.Spans())
	dur := map[string][]float64{}
	work := map[string]float64{}
	secs := map[string]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], ms(s.Dur()))
		work[s.Name] += float64(s.N)
		secs[s.Name] += s.Dur().Seconds()
	}
	med := func(name string) float64 { return median(dur[name]) }
	rate := func(name string) float64 { return work[name] / secs[name] }

	// server: HTTP cost is the round trip minus Server.Eval for the same
	// commands, queueing is Server.Eval minus Engine.Eval.
	httpMS, evalMS, replMS := weightedMedians(rec.byGroup(), lr.evalGroup, lr.replGroup)
	put("server.http_ms", "ms", httpMS-evalMS)
	put("server.eval_ms", "ms", evalMS)
	put("server.queue_ms", "ms", evalMS-replMS)
	put("server.result_cache_hit_ratio", "ratio", ratio(acc.cacheHits, acc.cacheMisses))
	put("server.requests", "count", acc.requests)

	for _, k := range replKeys {
		put("repl.eval_ms."+k, "ms", median(lr.replKey[k]))
	}

	put("core.view_hit_ms", "ms", med("core.view.hit"))
	put("core.view_patch_ms", "ms", med("core.view.patch"))
	put("core.view_build_ms", "ms", med("core.view.build"))
	put("core.view_hit_ratio", "ratio", ratio(acc.viewHits, acc.viewMisses))
	put("core.view_patches", "count", acc.patches)
	put("core.view_rebuilds", "count", acc.rebuilds)
	put("core.view_bytes", "MB", lr.viewBytes/1e6)
	put("core.delta_append_ms", "ms", med("core.delta_append"))
	put("core.pending_deltas", "count", acc.pendingDeltas)
	put("core.index_hit_ratio", "ratio", ratio(acc.indexHits, acc.indexMisses))
	put("core.index_bytes", "MB", lr.indexBytes/1e6)

	put("table.load_ms", "ms", med("table.load"))
	put("table.load_rows_per_s", "1/s", rate("table.load"))
	put("table.select_ms", "ms", med("table.select"))
	put("table.join_ms", "ms", med("table.join"))
	put("table.select_indexed_ms", "ms", med("table.select_indexed"))

	put("conv.tograph_ms", "ms", med("conv.tograph"))
	put("conv.edges_per_s", "1/s", rate("conv.tograph"))

	put("graph.build_view_ms", "ms", med("graph.build_view"))
	put("graph.build_uview_ms", "ms", med("graph.build_uview"))
	put("graph.patch_view_ms", "ms", med("graph.patch_view"))

	put("algo.pagerank_ms", "ms", med("algo.pagerank"))
	put("algo.pagerank_edges_per_s", "1/s", rate("algo.pagerank"))
	put("algo.wcc_ms", "ms", med("algo.wcc"))
	put("algo.triangles_ms", "ms", med("algo.triangles"))
	put("algo.kcore_ms", "ms", med("algo.kcore"))
	put("algo.topk_ms", "ms", med("algo.topk"))
	put("algo.pagerank_mapped_ms", "ms", med("algo.pagerank_mapped"))

	put("snapshot.restore_ms", "ms", med("snapshot.restore"))
	put("snapshot.mb_per_s", "MB/s", rate("snapshot.restore")/1e6)
	put("extmem.open_ms", "ms", med("extmem.open"))
	put("extmem.mapped_bytes", "MB", lr.mappedBytes/1e6)

	put("proc.server_cpu_s", "s", serverCPU)
	put("proc.client_cpu_s", "s", clientCPU)

	// Tracing overhead: the traced op (its spans' self times sum to its
	// duration) against the same op's untraced wall time over HTTP.
	selfT := SelfTimes(spans)
	selfSum := map[int64]float64{}
	var opMS []float64
	for _, s := range spans {
		selfSum[s.Op] += ms(selfT[s.ID])
		if s.Name == opSpan[wl.name] {
			opMS = append(opMS, ms(s.Dur()))
		}
	}
	var sums []float64
	for _, s := range spans {
		if s.Name == opSpan[wl.name] {
			sums = append(sums, selfSum[s.Op])
		}
	}
	traced := median(opMS)
	untraced := median(iters) * 1000
	overhead := traced - untraced
	put("trace.op_ms", "ms", traced)
	put("trace.self_sum_ms", "ms", median(sums))
	put("trace.untraced_op_ms", "ms", untraced)
	put("trace.overhead_ms", "ms", overhead)
	if d := math.Abs(median(sums) - untraced); d > math.Abs(overhead)+0.001*float64(len(sums)) {
		meta.Notes = append(meta.Notes, fmt.Sprintf("self times sum to %.3f ms, %.3f ms from the untraced op, beyond the %.3f ms overhead", median(sums), d, overhead))
	}
	meta.Samples["spans"] = len(spans)
	meta.Samples["traced_ops"] = len(opMS)
	return m
}

// measured drops the spans of warm-up ops.
func measured(spans []Span) []Span {
	warm := map[int64]bool{}
	for _, s := range spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, warmupPrefix) {
			warm[s.Op] = true
		}
	}
	out := spans[:0]
	for _, s := range spans {
		if !warm[s.Op] {
			out = append(out, s)
		}
	}
	return out
}

// weightedMedians averages per-command median latencies of the three
// executors, weighting each command by its share of the HTTP run, over the
// commands all three ran.
func weightedMedians(http, eval, repl map[string][]float64) (h, e, r float64) {
	var total float64
	for g, hs := range http {
		if len(eval[g]) == 0 || len(repl[g]) == 0 {
			continue
		}
		w := float64(len(hs))
		total += w
		h += w * median(hs)
		e += w * median(eval[g])
		r += w * median(repl[g])
	}
	if total == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	return h / total, e / total, r / total
}

// ratio is hits over attempts, 0 when nothing was attempted.
func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
