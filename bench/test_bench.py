"""Tests of the benchmark itself: metric and span schema, and the checkers.

    python3 -m pytest bench -q
"""

import json
import random
from collections import Counter
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import metrics  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from markoff import core, lifts  # noqa: E402
from markoff.paths import CagePath, construct_path  # noqa: E402
from markoff.words import PathWord  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ metric schema

def test_benchmark_json_matches_the_metric_tables():
    b = spec()
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in b["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in b["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in b["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert b["command"] == ["python3", "bench/run.py"] and b["paths"] == ["bench"]
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [w["name"] for w in b["workloads"]]
    assert len(names) == len(set(names))
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])


def test_end_to_end_reports_every_metric_with_samples():
    t = metrics.Timings()
    for i in range(1, 101):
        t.add(i * 1e-3, i * 2e-3)
    vals, samples = metrics.end_to_end(0.5, 100.0, t, answered=100)
    assert set(vals) == set(metrics.END_TO_END)
    assert all(v > 0 for v in vals.values())
    assert vals["first_ms_p90"] == pytest.approx(90.1)
    assert vals["answer_ms_p50"] == pytest.approx(101.0)
    assert samples["answer_ms_p90"] == 100 and metrics.beyond(100, 90) == 10


def test_timings_at_reference_scale_each_request():
    t = metrics.Timings()
    t.add(1.0, 2.0, "bounds")
    t.add(1.0, 4.0, "connectivity")
    with pytest.raises(ValueError):
        t.at_reference()
    t.scale += [0.5, 2.0]
    ref = t.at_reference()
    assert (ref.first, ref.answer, ref.flow) == ([0.5, 2.0], [1.0, 8.0], t.flow)
    assert ref.flow_busy("connectivity") == 8.0 and t.flow_busy("connectivity") == 4.0


def test_speed_scales_each_interval_by_the_probe_points_around_it():
    speed = probe.Speed("interp")
    calls = []
    for i, fresh in enumerate((False, False, True)):
        speed.interval(lambda: calls.append(i), fresh)
    assert calls == [0, 1, 2] and speed.intervals == [0, 1, 3] and len(speed.points) == 5
    ref = probe.REFERENCE_S["interp"]
    # one disturbed point does not move any scale
    speed.points = [2 * ref, 2 * ref, 100 * ref, 2 * ref, 2 * ref]
    assert speed.scales() == [0.5, 0.5, 0.5] and speed.run_scale == 0.5
    assert set(probe.PROBES) == set(probe.REFERENCE_S) == {w.probe for w in workloads.WORKLOADS.values()}


# ------------------------------------------------------------ span schema

def test_spans_nest_and_carry_the_schema():
    tr = tracing.Tracer()
    tr.rid = "0.0"
    with tr.span("bench.request"):
        with tr.span("paths.construct_path") as sp:
            sp.info["count"] = 3
            with tr.span("words.apply_mod"):
                pass
        with pytest.raises(ValueError):
            with tr.span("lifts.replay_integer"):
                raise ValueError("boom")
    root, route, apply, lift = tr.spans
    assert all(tuple(s.to_dict()) == tracing.SPAN_KEYS for s in tr.spans)
    assert (root.parent, route.parent, apply.parent, lift.parent) == (None, 0, 1, 0)
    assert lift.error and not route.error and {s.rid for s in tr.spans} == {"0.0"}
    own = tracing.self_times(tr.spans)
    assert own[0] == pytest.approx(root.duration - route.duration - lift.duration)
    assert own[1] == pytest.approx(route.duration - apply.duration)
    json.dumps([s.to_dict() for s in tr.spans])


def test_patch_records_internal_calls_and_restores():
    tr = tracing.Tracer()
    raw = PathWord.__dict__["apply_mod"]
    with tr.patch([(PathWord, "apply_mod", "words.apply_mod", None)]):
        construct_path(31, (1, 2, 1))
    assert PathWord.__dict__["apply_mod"] is raw
    assert [s.name for s in tr.spans] == ["words.apply_mod"]


def test_per_layer_reports_every_metric():
    tr = tracing.Tracer()
    for i in range(4):
        tr.rid = f"0.{i}"
        with tr.span("bench.request"):
            with tr.span("paths.construct_path"):
                with tr.span("words.apply_mod"):
                    pass
            with tr.span("lifts.replay_integer"):
                pass
    res = workloads.Pass(stages=Counter(seed=4, **{"cage-hop": 4}), word_lengths=[5] * 4,
                         word_segments=[2] * 4, lifts_exact=3, lifts_log=1)
    for _ in range(4):
        res.tally.record(None)
        res.timings.add(0.1, 0.275)
    declared, detail = metrics.per_layer(tr.spans, res, untraced_busy=1.0)
    assert set(declared) == set(metrics.PER_LAYER)
    assert sum(declared[f"{layer}.self_pct"] for layer in metrics.LAYERS) == pytest.approx(100)
    assert declared["paths.stage_count.seed"] == 1 and declared["lifts.log_domain_ratio"] == 0.25
    assert declared["bench.trace_overhead_pct"] == pytest.approx(10)
    assert detail["paths.route_ms_p50"] is not None and detail["graph.spectral_ms"] is None


# ------------------------------------------------------------ checkers

def test_independent_rotation_agrees_with_the_package():
    rng = random.Random(3)
    for p in (29, 31, 1009):
        cls = core.Classifier(p)
        for _ in range(20):
            x = checks.random_point(p, rng)
            assert checks.on_surface(x, p)
            assert checks.in_cage(x, p) == core.is_maximal(x, cls)
            axis, n = rng.randrange(1, 4), rng.randrange(-2 * p, 2 * p)
            assert checks.rotate(x, axis, n, p) == core.rotation_power(x, axis, n, p)


def test_correct_word_and_lift_pass():
    p, target = 29, (1, 2, 5)
    path = construct_path(p, target)
    steps = checks.parse_word(str(path.word))
    assert checks.check_word(str(path.word), p, target) is None
    assert checks.check_lift(lifts.replay_integer(path.word), steps, p, target) is None
    log_lift = lifts.replay_integer(construct_path(31, (1, 2, 1)).word, digit_cap=1)
    assert not log_lift.exact
    steps31 = checks.parse_word(str(construct_path(31, (1, 2, 1)).word))
    assert checks.check_lift(log_lift, steps31, 31, (1, 2, 1)) is None


@pytest.mark.parametrize("text", ["r1^3", "r1^2.r1^1", "r1^0", "r4^2", "r1^2.", ""])
def test_corrupted_word_counts_as_wrong(text):
    tally = metrics.Tally()
    assert not tally.record(checks.check_word(text, 29, (1, 2, 5)))
    assert (tally.attempted, tally.failed, tally.wrong, tally.correct) == (1, 1, 1, False)


def test_corrupted_lifts_count_as_wrong():
    p, target = 29, (1, 2, 5)
    word = construct_path(p, target).word
    steps = checks.parse_word(str(word))
    good = lifts.replay_integer(word)
    a, b, c = good.coords
    bad = [
        lifts.LiftTriple((a, b, c + p), good.log_coords, True),         # right residue, off surface
        lifts.LiftTriple((c, b, a), good.log_coords, True),             # on surface, wrong residue
        lifts.LiftTriple(None, (1.0, 2.0, 1e9), False),                 # log size past the bound
        lifts.LiftTriple(None, (1.0, float("nan"), 2.0), False),
    ]
    tally = metrics.Tally()
    for lift in bad:
        assert not tally.record(checks.check_lift(lift, steps, p, target))
    assert tally.wrong == len(bad) and not tally.correct


def test_refusal_is_a_failure_but_not_wrong():
    tally = metrics.Tally()
    tally.record(None)
    tally.record("p=3121: enumeration cap", refused=True)
    assert (tally.failed, tally.wrong, tally.correct, tally.fail_ratio) == (1, 0, True, 0.5)


def test_graph_output_checks():
    assert checks.check_connectivity("p=31: connected, 868 vertices\n", 31) is None
    assert checks.check_connectivity("p=31: connected, 869 vertices\n", 31)
    assert checks.check_connectivity("p=31: disconnected, 868 vertices in components 1 867\n", 31)
    rc, out, _ = workloads.run_cli(["bounds", "-p", "31"])
    assert rc == 0 and checks.check_bounds(out, 31) is None
    assert checks.check_bounds(out.replace(out.strip().split(",")[-1], "-0.1"), 31)
    assert checks.check_bounds(out, 37)


# ------------------------------------------------------------ workloads

class SmallLiftBatch(workloads.LiftBatch):
    P = 29
    UNIFORM, OUTSIDE_CAGE = 6, 2


def test_workload_counts_corrupted_answers(monkeypatch):
    wl = SmallLiftBatch()
    items = wl.make_round(workloads.round_rng(wl.name, 0, 0))
    assert items == wl.make_round(workloads.round_rng(wl.name, 0, 0))
    assert sum(not checks.in_cage(t, wl.P) for t in items) >= wl.OUTSIDE_CAGE
    ctx = wl.context(0)
    res = workloads.Pass()
    for t in items:
        wl.request(t, ctx, res, 0, None)
    assert (res.tally.attempted, res.tally.failed, res.answered) == (len(items), 0, len(items))

    def wrong_word(p, target, cls=None):
        path = construct_path(p, target, cls=cls)
        axis = 3 if path.word.steps and path.word.steps[-1][0] == 2 else 2
        word = path.word.concat(PathWord(((axis, 1),)))
        return CagePath(p, path.target, word, path.stages, False)

    monkeypatch.setattr(workloads, "construct_path", wrong_word)
    wl.request(items[0], ctx, res, 1, None)
    monkeypatch.undo()
    real = lifts.replay_integer
    monkeypatch.setattr(workloads.lifts_mod, "replay_integer",
                        lambda w, digit_cap: lifts.LiftTriple(None, (0.0, 0.0, 1e12), False)
                        if w.steps else real(w, digit_cap=digit_cap))
    wl.request(items[0], ctx, res, 1, None)
    assert (res.tally.wrong, res.tally.correct) == (2, False)


def test_path_cli_request_counts_a_wrong_word(monkeypatch):
    wl = workloads.PathCli()
    res = workloads.Pass()
    wl.request((31, (1, 2, 1)), None, res, 0, None)
    assert res.tally.failed == 0
    monkeypatch.setattr(workloads.cli_mod, "construct_path",
                        lambda p, t: construct_path(p, (1, 1, 2)))
    wl.request((31, (1, 2, 1)), None, res, 0, None)
    assert (res.tally.wrong, res.answered) == (1, 1)


def test_path_cli_trace_wraps_the_real_route():
    """A seed-miss prime: the constructive attempt fails inside construct_path
    and the BFS fallback's graph calls are recorded under it."""
    wl = workloads.PathCli()
    tr, res = tracing.Tracer(), workloads.Pass()
    raw = workloads.cli_mod.construct_path
    with wl.instrument(tr, res), tr.span("bench.request"):
        wl.request((263, checks.random_point(263, random.Random(0))), None, res, 0, tr)
    assert workloads.cli_mod.construct_path is raw and res.tally.failed == 0
    by_name = {s.name: s for s in tr.spans}
    route = by_name["paths.construct_path"]
    assert by_name["paths.constructive_stages"].error
    for name in ("core.Classifier", "paths.constructive_stages", "graph.build", "graph.bfs",
                 "graph.word_to", "words.apply_mod"):
        assert by_name[name].parent == route.id, name
    assert res.fallbacks == 1 and res.stages["bfs-fallback"] == 1
    _, detail = metrics.per_layer(tr.spans, res, untraced_busy=res.timings.busy)
    assert detail["paths.constructive_fail_ms"] > 0 and detail["graph.bfs_ns_per_vertex"] > 0


def test_run_refuses_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "path-cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
