"""Percentiles, request accounting and the metric tables the benchmark prints.

End-to-end metrics are measured with tracing off and are the same for every
workload; the caller passes times at the reference speed of probe.py.
Per-layer metrics come from the spans of a traced run; they are shares,
ratios and counts, so they need no scaling.  The names
here are the ones `BENCHMARK.json` declares.
"""

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Span, layer_self_seconds, self_times

LAYERS = ("cli", "core", "words", "graph", "paths", "lifts")
STAGE_TAGS = ("seed", "cage-hop", "cage-entry", "order-climb", "parabolic-hop", "bfs-fallback")

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "answers_per_s": "1/s",
    "first_ms_p50": "ms",
    "first_ms_p90": "ms",
    "answer_ms_p50": "ms",
    "answer_ms_p90": "ms",
}

PER_LAYER = {
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "bench.trace_overhead_pct": "%",
    "core.maximal_values_count": "count",
    "paths.fallback_ratio": "ratio",
    **{f"paths.stage_count.{tag}": "1/req" for tag in STAGE_TAGS},
    "paths.word_length_mean": "count",
    "paths.word_segments_mean": "count",
    "lifts.log_domain_ratio": "ratio",
    "graph.spectral_matvecs": "count",
    "graph.spectral_residual": "1",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile (q in [0, 100]) of a non-empty list."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of an empty sample")
    pos = (len(v) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def beyond(n: int, q: float) -> int:
    """Samples strictly above the q-th percentile rank in a sample of n."""
    return n - 1 - math.floor((n - 1) * q / 100)


@dataclass
class Tally:
    """Requests attempted, refused (an error or a non-zero exit) and wrong
    (an answer that failed its check).  Only a wrong answer fails the run."""

    attempted: int = 0
    refused: int = 0
    wrong: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, reason: Optional[str], refused: bool = False) -> bool:
        """Count one request; reason is None for a checked, correct answer."""
        self.attempted += 1
        if reason is None:
            return True
        if refused:
            self.refused += 1
        else:
            self.wrong += 1
        if len(self.reasons) < 20:
            self.reasons.append(("refused: " if refused else "wrong: ") + reason)
        return False

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Timings:
    """Per-request completion times of one pass in seconds, as measured,
    with each request's flow (graph-sweep) and, in the untraced pass, the
    probe scale of its interval (probe.py)."""

    first: List[float] = field(default_factory=list)
    answer: List[float] = field(default_factory=list)
    flow: List[str] = field(default_factory=list)
    scale: List[float] = field(default_factory=list)

    def add(self, first: float, answer: float, flow: str = "") -> None:
        self.first.append(first)
        self.answer.append(answer)
        self.flow.append(flow)

    @property
    def busy(self) -> float:
        return sum(self.answer)

    def flow_busy(self, flow: str) -> float:
        return sum(a for a, f in zip(self.answer, self.flow) if f == flow)

    def at_reference(self) -> "Timings":
        """These timings with each request multiplied by its scale."""
        if len(self.scale) != len(self.answer):
            raise ValueError(f"{len(self.answer)} requests but {len(self.scale)} scales")
        return Timings([x * s for x, s in zip(self.first, self.scale)],
                       [x * s for x, s in zip(self.answer, self.scale)],
                       list(self.flow), [1.0] * len(self.scale))


def end_to_end(setup_s: float, peak_rss_mb: float, t: Timings, answered: int
               ) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The end-to-end metric values and the sample count behind each."""
    n = len(t.answer)
    vals = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "answers_per_s": answered / t.busy,
        "first_ms_p50": 1e3 * percentile(t.first, 50),
        "first_ms_p90": 1e3 * percentile(t.first, 90),
        "answer_ms_p50": 1e3 * percentile(t.answer, 50),
        "answer_ms_p90": 1e3 * percentile(t.answer, 90),
    }
    samples = {k: n for k in vals if k.endswith(("_p50", "_p90", "_per_s"))}
    return vals, samples


def _median_ms(spans: Sequence[Span], name: str) -> Optional[float]:
    d = [s.duration for s in spans if s.name == name]
    return 1e3 * statistics.median(d) if d else None


def _median_ms_per_request(spans: Sequence[Span], name: str) -> Optional[float]:
    """Median over requests of the summed durations of their `name` spans."""
    per: Dict[str, float] = {}
    for s in spans:
        if s.name == name and s.rid != "setup":
            per[s.rid] = per.get(s.rid, 0.0) + s.duration
    return 1e3 * statistics.median(per.values()) if per else None


def _ns_per_vertex(spans: Sequence[Span], name: str, own: Sequence[float],
                   use_self: bool = False) -> Optional[float]:
    picked = [s for s in spans if s.name == name and not s.error]
    verts = sum(s.info.get("vertices", 0) for s in picked)
    if not verts:
        return None
    secs = sum(own[s.id] if use_self else s.duration for s in picked)
    return 1e9 * secs / verts


def per_layer(spans: Sequence[Span], res, untraced_busy: float
              ) -> Tuple[Dict[str, float], Dict[str, Optional[float]]]:
    """(metrics declared in BENCHMARK.json, detailed per-call timings).

    Self-time shares and counts are defined for every workload: a layer the
    workload never calls has share 0.  The detailed timings are None where
    the workload makes no such call.  `res` is the traced pass (a
    workloads.Pass); untraced_busy is the request time of the untraced one."""
    requests = res.tally.attempted
    traced_busy = res.timings.busy
    own = self_times(spans)
    layer_s = layer_self_seconds(spans, roots=("bench.request",))
    total = sum(layer_s.get(layer, 0.0) for layer in LAYERS) or 1.0
    sweeps = [s.info["count"] for s in spans if s.name == "core.maximal_values"]
    spectral = [s for s in spans if s.name == "graph.spectral_gap" and not s.error]
    lifts_n = res.lifts_exact + res.lifts_log
    declared = {f"{layer}.self_pct": 100 * layer_s.get(layer, 0.0) / total for layer in LAYERS}
    declared.update({
        "bench.trace_overhead_pct": 100 * (traced_busy - untraced_busy) / untraced_busy,
        "core.maximal_values_count": statistics.mean(sweeps) if sweeps else 0,
        "paths.fallback_ratio": res.fallbacks / requests,
        **{f"paths.stage_count.{tag}": res.stages.get(tag, 0) / requests for tag in STAGE_TAGS},
        "paths.word_length_mean": statistics.mean(res.word_lengths) if res.word_lengths else 0,
        "paths.word_segments_mean": (statistics.mean(res.word_segments)
                                     if res.word_segments else 0),
        "lifts.log_domain_ratio": res.lifts_log / lifts_n if lifts_n else 0,
        "graph.spectral_matvecs": (statistics.mean(s.info["iterations"] for s in spectral)
                                   if spectral else 0),
        "graph.spectral_residual": max((s.info["residual"] for s in spectral), default=0),
    })

    cli_self = [1e3 * own[s.id] for s in spans if s.name == "cli.main"]
    # the outermost constructive attempt of a route that raised (the
    # dispatch recurses through order climbs)
    failed_attempts = [1e3 * s.duration for s in spans
                       if s.name == "paths.constructive_stages" and s.error
                       and s.parent is not None and spans[s.parent].name == "paths.construct_path"]
    routes = [1e3 * s.duration for s in spans
              if s.name == "paths.construct_path" and not s.error and s.rid != "setup"]
    replays = [1e3 * s.duration for s in spans if s.name == "lifts.replay_integer"]
    detail = {
        "cli.overhead_ms_p50": statistics.median(cli_self) if cli_self else None,
        "core.classifier_init_ms": _median_ms(spans, "core.Classifier"),
        # the first call on a classifier sweeps F_p, later ones are cached
        "core.maximal_values_ms": _median_ms_per_request(spans, "core.maximal_values"),
        "paths.first_route_ms": None,
        "paths.route_ms_p50": None,
        "paths.route_ms_p90": None,
        "paths.constructive_fail_ms": (statistics.median(failed_attempts)
                                       if failed_attempts else None),
        "words.apply_mod_ms": _median_ms(spans, "words.apply_mod"),
        "graph.enum_ns_per_vertex": _ns_per_vertex(spans, "graph.surface_arrays", own),
        "graph.build_ns_per_vertex": _ns_per_vertex(spans, "graph.build", own, use_self=True),
        "graph.components_ns_per_vertex": _ns_per_vertex(spans, "graph.components", own),
        "graph.bfs_ns_per_vertex": _ns_per_vertex(spans, "graph.bfs", own),
        "graph.spectral_ms": _median_ms(spans, "graph.spectral_gap"),
        "lifts.replay_ms_p50": percentile(replays, 50) if replays else None,
        "lifts.replay_ms_p90": percentile(replays, 90) if replays else None,
        "lifts.bound_report_ms": _median_ms(spans, "lifts.bound_report"),
        "bench.trace_overhead_ms_per_req": 1e3 * (traced_busy - untraced_busy) / requests,
    }
    if routes:
        # a route on a fresh classifier (path-cli, one Classifier per request)
        # pays the maximal-value mesh; on a shared warm one (lift-batch) it does not
        if any(s.name == "core.Classifier" and s.rid != "setup" for s in spans):
            detail["paths.first_route_ms"] = statistics.median(routes)
        else:
            detail["paths.route_ms_p50"] = percentile(routes, 50)
            detail["paths.route_ms_p90"] = percentile(routes, 90)
    for layer in LAYERS + ("bench",):
        detail[f"{layer}.self_ms_per_req"] = 1e3 * layer_s.get(layer, 0.0) / requests
    return declared, detail
