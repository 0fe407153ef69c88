"""Benchmark for the markoff package, one workload per invocation.

    python3 bench/run.py --workload graph-sweep|path-cli|lift-batch \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout: the package is imported from `src/` next to this
directory and nowhere else, and the run stops with exit code 2 if it is
missing.  Inputs come only from --seed.  Requests run in whole rounds (see
workloads.py) until about --seconds of request time at the reference speed
have passed; every answer is checked with code that does not use the
package.

--trace 0 prints the end-to-end metrics.  Each request time is scaled to a
reference machine speed by the probe points timed around it (see probe.py);
the report shows the measured values too.  --trace 1 runs every request
twice in a row, untraced and traced (traced first on every other request),
and prints the per-layer metrics; the difference between the two passes is
the tracing overhead.  Both print a
readable report, then one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

and write a run record (environment, composition, every metric with its
sample count, output digests) to bench/runs/, plus the spans of a traced run.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"

DEFAULT_SEED = 1
# Kept out of tuning: check a claimed gain on this seed as well.
HELD_OUT_SEED = 7919
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("graph-sweep", "path-cli", "lift-batch")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="markoff benchmark (one workload per run)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time to aim for; whole rounds always run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment() -> dict:
    """One process, serial prime ranges, single-threaded BLAS."""
    before = {v: os.environ.get(v) for v in THREAD_VARS + ("MARKOFF_THREADS",)}
    for v in THREAD_VARS:
        os.environ[v] = "1"
    os.environ.pop("MARKOFF_THREADS", None)
    return before


def environment(thread_env_before: dict) -> dict:
    import platform

    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    src = hashlib.sha256()
    for f in sorted((SRC / "markoff").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("MARKOFF_THREADS",)},
        "thread_env_before": thread_env_before,
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cold_import_seconds(modules) -> float:
    """Wall time of a fresh interpreter that imports the given modules from
    src/, as a command-line user pays it."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); " + "; ".join(
        f"import {m}" for m in modules)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def traced_request(wl, item, rnd, i, tctx, tres, tracer) -> None:
    tracer.rid = f"{rnd}.{i}"
    with wl.instrument(tracer, tres), tracer.span("bench.request"):
        wl.request(item, tctx, tres, rnd, tracer)


def measure(wl, seed, first_round, seconds, ctx, res, speed, traced=None):
    """Whole rounds of requests into the Pass `res`, each an interval of
    `speed` that gives its scale.  The round count is fixed after
    round 0 as the number of rounds whose request time at the reference
    speed fills about `seconds`.  With traced = (context, Pass, Tracer),
    each request is also run at once with tracing on, so both passes see
    the machine in the same state and their difference is the tracing
    overhead."""
    from workloads import round_rng

    rnd, rounds = 0, None
    while rounds is None or rnd < rounds:
        items = first_round if rnd == 0 else wl.make_round(round_rng(wl.name, seed, rnd))
        for i, item in enumerate(items):
            # the traced run goes first on every other request, so the
            # warm caches the second run finds do not bias the overhead
            if traced is not None and i % 2:
                traced_request(wl, item, rnd, i, *traced)
            # the probe point after one request is the one before the next,
            # unless a traced request ran in between
            speed.interval(lambda: wl.request(item, ctx, res, rnd, None),
                           fresh=traced is not None)
            if traced is not None and not i % 2:
                traced_request(wl, item, rnd, i, *traced)
        if rounds is None:
            # at the reference speed, so the same code runs the same rounds
            # however fast the machine is at the time
            rounds = max(1, round(seconds / (res.timings.busy * speed.run_scale)))
        rnd += 1
    res.timings.scale = speed.scales()
    return rounds


def workload_metrics(name: str, res, t) -> dict:
    """The per-workload figures named in the benchmark's design notes,
    reported alongside the shared end-to-end metrics from the timings `t`
    (at the reference speed), as name -> (value, unit)."""
    from metrics import percentile

    out = {"fail_ratio": (res.tally.fail_ratio, "ratio")}
    if name == "graph-sweep":
        for flow in ("connectivity", "bounds"):
            out[f"{flow}_vps"] = (res.flow_vertices[flow] / t.flow_busy(flow), "vertices/s")
    else:
        out["word_ms_p50"] = (1e3 * percentile(t.first, 50), "ms")
        out["word_ms_p90"] = (1e3 * percentile(t.first, 90), "ms")
    if name == "path-cli":
        out["words_per_s"] = (res.answered / t.busy, "1/s")
    if name == "lift-batch":
        out["lift_ms_p50"] = (1e3 * percentile(t.answer, 50), "ms")
        out["lift_ms_p90"] = (1e3 * percentile(t.answer, 90), "ms")
        out["lifts_per_s"] = (res.answered / t.busy, "1/s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "markoff" / "__init__.py").is_file():
        print(f"error: no markoff package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    thread_env_before = pin_environment()
    sys.path.insert(0, str(SRC))

    import markoff
    import workloads
    if Path(markoff.__file__).resolve().parent != (SRC / "markoff").resolve():
        print(f"error: imported markoff from {markoff.__file__}, not {SRC}", file=sys.stderr)
        return 2
    imports = ["markoff.cli", *workloads.WORKLOADS[args.workload].imports]
    for module in imports:
        importlib.import_module(module)
    from metrics import END_TO_END, PER_LAYER, beyond, end_to_end, per_layer
    from probe import REPS, Speed
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]()
    speed = Speed(wl.probe)

    import_times = [cold_import_seconds(imports) for _ in range(SETUP_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        first_round = wl.make_round(workloads.round_rng(wl.name, args.seed, 0))
        ctx = wl.context(args.seed)
        setup_times.append(time.perf_counter() - t)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    res = workloads.Pass()
    passes = [res]
    detail, spans = {}, []
    if args.trace:
        tracer = Tracer()
        tracer.rid = "setup"
        traced = workloads.Pass()
        passes.append(traced)
        rounds = measure(wl, args.seed, first_round, args.seconds, ctx, res, speed,
                         traced=(wl.context(args.seed, tracer), traced, tracer))
        spans = tracer.spans
        metrics, detail = per_layer(spans, traced, untraced_busy=res.timings.busy)
        units, samples, raw = PER_LAYER, {}, {}
    else:
        rounds = measure(wl, args.seed, first_round, args.seconds, ctx, res, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # set-up is one stretch of a second or so, too long for the two
        # probe points around it to stand for; the run's median point does
        metrics, samples = end_to_end(setup_s * speed.run_scale, peak_rss_mb,
                                      res.timings.at_reference(), res.answered)
        raw, _ = end_to_end(setup_s, peak_rss_mb, res.timings, res.answered)
        units = END_TO_END

    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    correct = all(p.tally.correct for p in passes)
    digests = [p.digests() for p in passes]
    if len(digests) == 2 and digests[0] != digests[1]:
        correct = False
        res.tally.reasons.append("wrong: traced and untraced outputs differ")
    extra = workload_metrics(wl.name, res, res.timings.at_reference())
    probe_q = statistics.quantiles(speed.points, n=4)
    scale_q = statistics.quantiles(res.timings.scale, n=4) if len(res.timings.scale) > 1 else []

    n = len(res.timings.answer)
    print(f"markoff benchmark  workload={wl.name} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} requests={n} busy_s={res.timings.busy:.3f}")
    print(f"  {wl.probe} probe: points={len(speed.points)} quartiles_ms="
          f"{'/'.join(format(1e3 * q, '.3f') for q in probe_q)} request scale quartiles="
          f"{'/'.join(format(q, '.3f') for q in scale_q)} run scale={speed.run_scale:.3f}"
          f"{'  (times below are at reference speed; measured in brackets)' if raw else ''}")
    for name, unit in units.items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if name.endswith("_p90"):
            note = f"  (n={samples[name]}, {beyond(n, 90)} beyond p90)"
        measured = f"  [{raw[name]:.6g}]" if raw and raw[name] != metrics[name] else ""
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}{measured}{note}")
    for name, (value, unit) in extra.items():
        note = f"  (n={n})" if name.endswith("_p50") else ""
        if name.endswith("_p90"):
            note = f"  (n={n}, {beyond(n, 90)} beyond p90)"
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    for name, value in detail.items():
        print(f"  {name:32s} {'-' if value is None else format(value, '14.6g'):>14s}")
    for key, value in digests[0].items():
        print(f"  digest.{key:25s} {value}")
    for reason in res.tally.reasons:
        print(f"  {reason}")

    RUNS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": wl.name, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "composition": wl.composition(),
        "environment": environment(thread_env_before),
        "setup_s_repeats": setup_times, "import_s_repeats": import_times,
        "probe": {"kind": wl.probe, "points": len(speed.points), "reps": REPS,
                  "quartiles_s": probe_q, "request_scale_quartiles": scale_q,
                  "run_scale": speed.run_scale},
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "measured_metrics": raw,
        "samples": samples, "workload_metrics": extra, "layer_detail": detail,
        "digests": digests[0],
        "tally": {"attempted": attempted, "failed": failed, "correct": correct,
                  "reasons": res.tally.reasons},
    }
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (RUNS / f"{stem}-spans.json").write_text(
            json.dumps([s.to_dict() for s in spans]) + "\n")
    print(f"  record: {RUNS.relative_to(ROOT) / (stem + '.json')}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
