"""Turns helix_perf's raw records into the benchmark's metrics.

helix_perf prints one JSON record per line, prefixed "raw,". Timed runs
(--trace 0) yield the end-to-end metrics; traced runs (--trace 1) yield
the per-layer split, read from the iteration records, the Chrome trace
(executor node and iteration spans), metrics-registry snapshots and the
throughput probes.

End-to-end values are means over laps of a per-lap value (the set-up time
is the median of the per-lap set-ups). Per-lap values are multi-modal:
the online materialization policy flips decisions from lap to lap, and a
median over laps jumps between those modes where a mean moves smoothly;
on ten-seed sets the mean's run-to-run spread was lower for most metrics.
Percentiles inside a lap are linearly interpolated, so a lap's edit mix
cannot make them jump between edit classes. Per-layer values are medians
over the traced laps.
"""

import json
import statistics

MB = 1e6
CLASSES = ("initial", "preprocess", "ml", "eval")
TRAIN_NODES = ("incPred", "mentionModel")
FEATURE_NODES = ("tokens", "tokenFeats")
KINDS = ("table", "examples", "text")


class CheckFailed(Exception):
    """An output or ledger check failed; the run must not report."""


def parse_records(stdout):
    return [json.loads(line[4:]) for line in stdout.splitlines()
            if line.startswith("raw,")]


def percentile(values, q):
    """Linearly interpolated percentile (q in [0, 1]) of `values`."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_summary(values):
    """(median, highest percentile with >= 10 samples beyond it, n)."""
    n = len(values)
    if n == 0:
        return None, None, 0
    ordered = sorted(values)
    if n < 11:
        return statistics.median(ordered), None, n
    q = (n - 10) / n
    return statistics.median(ordered), (q, ordered[n - 11]), n


def median_over(laps, fn):
    values = [v for v in (fn(lap) for lap in laps) if v is not None]
    return statistics.median(values) if values else 0.0


def mean_over(laps, fn):
    values = [v for v in (fn(lap) for lap in laps) if v is not None]
    return statistics.fmean(values) if values else 0.0


class Run:
    """Records of one helix_perf run, grouped by lap."""

    def __init__(self, records):
        self.header = next(r for r in records if r["type"] == "run")
        self.workload = self.header["workload"]
        self.team = self.workload == "team_tcp"
        self.laps = [r for r in records if r["type"] == "lap"]
        self.iters = {}
        for r in records:
            if r["type"] == "iter":
                self.iters.setdefault(r["lap"], []).append(r)
        self.documents = {(r["type"], r["lap"]): r for r in records
                          if r["type"] in ("metrics", "server_trace")}
        self.check = next((r for r in records if r["type"] == "check"), None)
        if self.check is None:
            raise CheckFailed("no output check record")
        self.rss = next(r for r in records if r["type"] == "rss")
        self.probes = {r["name"]: r["mb_s"] for r in records
                       if r["type"] == "probe"}
        self.baselines = {r["system"]: r["cum_us"] for r in records
                          if r["type"] == "baseline"}

    def attempted_failed(self):
        if self.team:
            attempted = sum(lap["attempted"] for lap in self.laps)
        else:
            attempted = sum(lap["iterations"] for lap in self.laps)
        return attempted, sum(lap["failed"] for lap in self.laps)

    def lap_calls(self, lap, category=None):
        return [it["call_us"] / 1e3 for it in self.iters.get(lap["lap"], [])
                if category is None or it["category"] == category]


# --- end-to-end --------------------------------------------------------------

def end_to_end(run, laps):
    """Metric name -> (value, unit, pooled samples for the tail report)."""
    def lap_seconds(lap):
        return (lap["wall_us"] if run.team else lap["cum_us"]) / 1e6

    metrics = {
        "cum_ms": (mean_over(laps, lambda l: l["cum_us"] / 1e3), "ms",
                   [l["cum_us"] / 1e3 for l in laps]),
    }
    for cls in CLASSES:
        metrics[cls + "_ms"] = (
            mean_over(laps, lambda l, c=cls: statistics.fmean(
                run.lap_calls(l, c)) if run.lap_calls(l, c) else None),
            "ms", [v for l in laps for v in run.lap_calls(l, cls)])
    calls = [v for l in laps for v in run.lap_calls(l)]
    metrics["iters_per_s"] = (
        mean_over(laps, lambda l: len(run.lap_calls(l)) / lap_seconds(l)),
        "1/s", None)
    metrics["iter_p50_ms"] = (
        mean_over(laps, lambda l: percentile(run.lap_calls(l), 0.5)), "ms",
        calls)
    metrics["iter_p90_ms"] = (
        mean_over(laps, lambda l: percentile(run.lap_calls(l), 0.9)), "ms",
        calls)
    metrics["store_mb"] = (
        mean_over(laps, lambda l: l["store_bytes"] / MB), "MB",
        [l["store_bytes"] / MB for l in laps])
    metrics["peak_rss_mb"] = (run.rss["peak_rss_mb"], "MB", None)
    metrics["setup_s"] = (
        median_over(run.laps, lambda l: l["setup_us"] / 1e6), "s",
        [l["setup_us"] / 1e6 for l in run.laps])
    attempted, failed = run.attempted_failed()
    metrics["error_rate"] = (failed / attempted, "ratio", None)
    return metrics


def analyst_balance(run, laps):
    """team_tcp: (user, app, median over laps of the user's summed call
    time in ms), so one analyst dominating a lap shows."""
    per_user = {}
    for lap in laps:
        sums = {}
        for it in run.iters.get(lap["lap"], []):
            key = (it["user"], it["app"])
            sums[key] = sums.get(key, 0.0) + it["call_us"] / 1e3
        for key, ms in sums.items():
            per_user.setdefault(key, []).append(ms)
    return [(user, app, statistics.median(values))
            for (user, app), values in sorted(per_user.items())]


# --- per-layer ---------------------------------------------------------------

def index_spans(trace_events):
    """pid -> (iteration spans by iteration number, node spans by start)."""
    spans = {}
    for ev in trace_events:
        if ev.get("cat") not in ("iteration", "node"):
            continue
        iterations, nodes = spans.setdefault(ev["pid"], ({}, []))
        if ev["cat"] == "iteration":
            iterations[ev["args"]["iteration"]] = ev
        else:
            nodes.append(ev)
    return spans


def iteration_nodes(spans, pid, iteration_span):
    start = iteration_span["ts"]
    end = start + iteration_span["dur"]
    return [n for n in spans[pid][1] if start <= n["ts"] <= end]


def active(node):
    return node["args"]["outcome"] not in ("pruned", "sliced")


def writer_queue_max(nodes):
    """Deepest materialization queue of one iteration, replaying the
    background writer as one FIFO over (enqueue = node end, write time)."""
    writes = sorted((n["ts"] + n["dur"], n["args"]["materialize_micros"])
                    for n in nodes if "materialize_micros" in n["args"])
    finish, free_at = [], 0
    for enqueue, micros in writes:
        free_at = max(free_at, enqueue) + micros
        finish.append(free_at)
    return max((sum(1 for (e, _), f in zip(writes, finish) if e <= t < f)
                for t, _ in writes), default=0)


def node_split(nodes):
    """Per-iteration sums that come straight from node spans."""
    out = {"load_us": 0, "materialize_us": 0, "train_us": 0, "features_us": 0}
    for n in nodes:
        outcome = n["args"]["outcome"]
        if outcome in ("loaded", "shared"):
            out["load_us"] += n["dur"]
        if outcome == "computed" and n["name"] in TRAIN_NODES:
            out["train_us"] += n["dur"]
        if outcome == "computed" and n["name"] in FEATURE_NODES:
            out["features_us"] += n["dur"]
        out["materialize_us"] += n["args"].get("materialize_micros", 0)
    return out


def reuse_fraction(lap_nodes):
    """Share of bytes written in a lap that a later iteration loads;
    `lap_nodes` holds each iteration's node spans in start order."""
    written = {}
    for order, nodes in enumerate(lap_nodes):
        for n in nodes:
            if "materialize_micros" in n["args"]:
                written.setdefault(n["args"]["signature"],
                                   (order, n["args"]["bytes"]))
    reused = set()
    for order, nodes in enumerate(lap_nodes):
        for n in nodes:
            sig = n["args"]["signature"]
            if (n["args"]["outcome"] == "loaded" and sig in written
                    and written[sig][0] < order):
                reused.add(sig)
    total = sum(b for _, b in written.values())
    return sum(written[s][1] for s in reused) / total if total else 0.0


def counter(snapshot, name):
    return snapshot["counters"].get(name, 0)


def hist_sum(snapshot, name):
    return snapshot["histograms"].get(name, {}).get("sum", 0)


def lap_layers(run, lap, spans, parallel):
    """Per-layer sums of one traced lap, plus the ledger check."""
    iters = run.iters.get(lap["lap"], [])
    snapshot = run.documents[("metrics", lap["lap"])]["metrics"]
    out = {name: 0.0 for name in PER_LAYER}
    lap_nodes = []
    ok_so_far = {}  # team: a session's iteration number counts successes
    for it in iters:
        if run.team and not it["ok"]:
            continue
        out["core.nodes_computed"] += it["computed"]
        out["core.nodes_loaded"] += it["loaded"]
        out["core.nodes_pruned"] += it["pruned"]
        pid = it["pid"]
        if run.team:
            iteration = ok_so_far.get(pid, 0)
            ok_so_far[pid] = iteration + 1
        else:
            iteration = it["iteration"]
        span = spans[pid][0][iteration]
        if span["dur"] != it["total_us"]:
            raise CheckFailed("iteration span disagrees with the report")
        nodes = iteration_nodes(spans, pid, span)
        lap_nodes.append((span["ts"], nodes))
        last_end = max((n["ts"] + n["dur"] for n in nodes if active(n)),
                       default=span["ts"])
        writer_wait = span["ts"] + span["dur"] - last_end
        split = node_split(nodes)
        out["storage.load_ms"] += split["load_us"] / 1e3
        out["storage.materialize_ms"] += split["materialize_us"] / 1e3
        out["ml.train_ms"] += split["train_us"] / 1e3
        out["nlp.features_ms"] += split["features_us"] / 1e3
        out["runtime.writer_ms"] += writer_wait / 1e3
        if run.team:
            out["net.rtt_overhead_ms"] += (it["run_us"] - it["total_us"]) / 1e3
            out["net.fetch_misses"] += it["fetch_misses"]
            continue
        out["runtime.writer_queue_max"] = max(
            out["runtime.writer_queue_max"],
            writer_queue_max(nodes) if parallel else 0)
        # session and unattributed are remainders, so plan + critical path
        # + writer wait + session + unattributed equals the call's wall
        # time by construction; the ledger is only sound if no part is
        # negative.
        session = it["call_us"] - it["total_us"]
        unattributed = (it["total_us"] - it["plan_us"] - it["cp_us"]
                        - writer_wait)
        parts = (it["plan_us"], it["cp_us"], writer_wait, session,
                 unattributed)
        if min(parts) < 0:
            raise CheckFailed(
                "negative ledger part on lap %d edit %d: plan %d, critical "
                "path %d, writer wait %d, session %d, unattributed %d "
                "(call %d)" % ((lap["lap"], it["index"]) + parts
                               + (it["call_us"],)))
        out["core.session_ms"] += session / 1e3
        out["core.plan_ms"] += it["plan_us"] / 1e3
        out["core.critical_path_ms"] += it["cp_us"] / 1e3
        out["core.unattributed_ms"] += unattributed / 1e3
        out["runtime.pool_wait_ms"] += it["pool_wait_us"] / 1e3
    seen = out["core.nodes_computed"] + out["core.nodes_loaded"]
    out["storage.hit_rate"] = out["core.nodes_loaded"] / seen if seen else 0.0
    out["storage.reuse_frac"] = reuse_fraction(
        [nodes for _, nodes in sorted(lap_nodes, key=lambda p: p[0])])
    out["storage.written_mb"] = counter(snapshot, "store.bytes_written") / MB
    out["storage.read_mb"] = counter(snapshot, "store.bytes_read") / MB
    out["storage.evictions"] = counter(snapshot, "store.evictions")
    if run.team:
        out["runtime.pool_wait_ms"] = hist_sum(
            snapshot, "pool.task_wait_micros") / 1e3
        out["runtime.writer_queue_max"] = snapshot["gauges"].get(
            "materializer.queue_depth", {}).get("max", 0)
        out["runtime.share_wait_ms"] = hist_sum(
            snapshot, "inflight.share_wait_micros") / 1e3
        out["runtime.shared_hits"] = counter(snapshot, "inflight.shared_hits")
        out["service.cross_session_loads"] = lap["cross_session_loads"]
        out["net.server_queue_ms"] = hist_sum(
            snapshot, "server.queue_micros") / 1e3
        out["net.decode_ms"] = hist_sum(snapshot, "server.decode_micros") / 1e3
        out["net.reply_write_ms"] = hist_sum(
            snapshot, "server.reply_write_micros") / 1e3
        out["net.shed"] = counter(snapshot, "server.requests_shed")
        fetch_us = sum(it["fetch_us"] for it in iters)
        fetch_bytes = sum(it["fetch_bytes"] for it in iters)
        out["net.fetch_mb_s"] = fetch_bytes / fetch_us if fetch_us else 0.0
    return out


# Per-layer metric -> the end-to-end metric and workload it should move,
# written down before any optimisation so a later change can cite it.
# Layer times are sums over one lap's iterations; counts are per lap.
CENSUS, IE, TEAM = "census_edits", "ie_edits", "team_tcp"
_SERDE = "storage.materialize_ms and storage.load_ms"
PER_LAYER = {
    "core.session_ms": "eval_ms on %s" % CENSUS,
    "core.plan_ms": "eval_ms on %s" % CENSUS,
    "core.critical_path_ms": "cum_ms on %s and %s" % (CENSUS, IE),
    "core.unattributed_ms": "cum_ms on %s" % CENSUS,
    "core.nodes_computed": "count",
    "core.nodes_loaded": "count",
    "core.nodes_pruned": "count",
    "storage.load_ms": "eval_ms and ml_ms on %s" % CENSUS,
    "storage.materialize_ms": "initial_ms and preprocess_ms on %s and %s" % (
        CENSUS, IE),
    "storage.written_mb": "store_mb",
    "storage.read_mb": "count",
    "storage.evictions": "count",
    "storage.hit_rate": "cum_ms",
    "storage.reuse_frac": "store_mb",
    "storage.put_mb_s": "initial_ms",
    "storage.get_mb_s": "eval_ms",
}
for _kind in KINDS:
    for _op in ("serialize", "serialize_spans", "deserialize"):
        PER_LAYER["dataflow.%s.%s_mb_s" % (_kind, _op)] = _SERDE
PER_LAYER.update({
    "ml.train_ms": "cum_ms and ml_ms on %s, ml_ms on %s and %s" % (
        IE, CENSUS, TEAM),
    "nlp.features_ms": "preprocess_ms on %s and %s" % (IE, TEAM),
    "runtime.pool_wait_ms": "cum_ms on %s, iter_p90_ms on %s" % (CENSUS,
                                                                 TEAM),
    "runtime.writer_ms": "initial_ms, iter_p90_ms on %s" % TEAM,
    "runtime.writer_queue_max": "initial_ms, iter_p90_ms on %s" % TEAM,
    "runtime.share_wait_ms": "iters_per_s on %s" % TEAM,
    "runtime.shared_hits": "iters_per_s on %s" % TEAM,
    "service.cross_session_loads": "iters_per_s on %s" % TEAM,
    "net.rtt_overhead_ms": "iter_p50_ms on %s" % TEAM,
    "net.server_queue_ms": "iter_p90_ms on %s" % TEAM,
    "net.decode_ms": "iter_p90_ms on %s" % TEAM,
    "net.reply_write_ms": "iter_p90_ms on %s" % TEAM,
    "net.fetch_mb_s": "iter_p90_ms on %s" % TEAM,
    "net.fetch_misses": "iter_p90_ms on %s" % TEAM,
    "net.frame_encode_mb_s": "iter_p50_ms on %s" % TEAM,
    "net.frame_decode_mb_s": "iter_p50_ms on %s" % TEAM,
    "net.shed": "error_rate on %s" % TEAM,
})

UNITS = {"_ms": "ms", "_mb_s": "MB/s", "_mb": "MB", "_frac": "ratio",
         "_rate": "ratio"}


def unit_of(name):
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(run, chrome_trace):
    """Metric name -> median over traced laps (probes: as measured)."""
    traced = [lap for lap in run.laps if lap["traced"]]
    parallel = run.header.get("parallelism", 1) > 1
    per_lap = []
    for lap in traced:
        if run.team:
            events = run.documents[("server_trace", lap["lap"])]["trace"]
        else:
            events = chrome_trace
        per_lap.append(lap_layers(run, lap, index_spans(
            events["traceEvents"]), parallel))
    out = {}
    for name in PER_LAYER:
        if name in run.probes:
            out[name] = run.probes[name]
        else:
            out[name] = statistics.median(v[name] for v in per_lap)
    return out


def readout(run):
    """Tracing overhead and the paper comparison (reported, never gated)."""
    traced = [l["cum_us"] / 1e3 for l in run.laps if l["traced"]]
    untraced = [l["cum_us"] / 1e3 for l in run.laps if not l["traced"]]
    lines = []
    if traced and untraced:
        lines.append("tracing overhead: %+.1f ms per lap (traced median "
                     "%.1f ms, untraced median %.1f ms)" % (
                         statistics.median(traced) - statistics.median(
                             untraced), statistics.median(traced),
                         statistics.median(untraced)))
    helix = statistics.median(untraced) if untraced else None
    if helix and "keystoneml" in run.baselines and run.workload == "census_edits":
        ks = run.baselines["keystoneml"] / 1e3
        lines.append("paper readout: keystoneml %.1f ms / helix %.1f ms = "
                     "%.2fx (paper Fig. 2b: about 10x)" % (ks, helix,
                                                          ks / helix))
    if helix and "deepdive" in run.baselines:
        dd = run.baselines["deepdive"] / 1e3
        lines.append("paper readout: helix %.1f ms is %.0f%% lower than "
                     "deepdive %.1f ms (paper Fig. 2a: about 60%% lower)" % (
                         helix, 100 * (dd - helix) / dd, dd))
    return lines
