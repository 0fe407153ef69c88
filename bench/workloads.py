"""The three benchmark workloads.

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  Requests come in rounds; a round has a
fixed composition (which primes, how many targets of each kind) and its
inputs are drawn from `random.Random("<workload>:<seed>:<round>")`, so the
same seed and round always give the same requests.  Round 0 is generated
during set-up; the output digests cover round 0 only, so they do not depend
on how many rounds fit in the measured time.

  graph-sweep  `markoff connectivity -p P` for every prime in 940..1000 and
               `markoff bounds -p P` for every prime in 151..199, through
               `markoff.cli.main` in process, shuffled.
  path-cli     one cold `markoff path -p P --to T` per prime in 200..1100,
               shuffled, T uniform on X*(P).  Seven of these primes have no
               seed-walk hit and fall back to a whole-graph BFS.
  lift-batch   `construct_path(p, t, cls=shared)` then `replay_integer(word,
               digit_cap=5*10**4)` at p = 2017: 80 uniform targets and 20
               targets outside the cage per round, shuffled, with the shared
               Classifier warmed during set-up.

Every answer is checked with the independent code in `checks.py`.
"""

import contextlib
import hashlib
import io
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import markoff.cli as cli_mod
import markoff.graph as graph_mod
import markoff.lifts as lifts_mod
import markoff.paths as paths_mod
from markoff.core import Classifier
from markoff.errors import CapExceeded, ConstructionError, DomainError
from markoff.graph import SurfaceGraph
from markoff.paths import construct_path
from markoff.words import PathWord

import checks
from metrics import Tally, Timings
from tracing import Tracer

REFUSALS = (ConstructionError, CapExceeded, DomainError)


@dataclass
class Pass:
    """What one pass over the rounds observed, untraced or traced."""

    tally: Tally = field(default_factory=Tally)
    timings: Timings = field(default_factory=Timings)
    answered: int = 0
    stages: Counter = field(default_factory=Counter)
    word_lengths: List[int] = field(default_factory=list)
    word_segments: List[int] = field(default_factory=list)
    lifts_exact: int = 0
    lifts_log: int = 0
    fallbacks: int = 0
    # vertices through each flow (graph-sweep)
    flow_vertices: Counter = field(default_factory=Counter)
    # round-0 outputs, digested at the end
    outputs: Dict[str, List[str]] = field(default_factory=dict)

    def keep(self, key: str, rnd: int, text: str) -> None:
        if rnd == 0:
            self.outputs.setdefault(key, []).append(text)

    def digests(self) -> Dict[str, str]:
        return {k: hashlib.sha256("".join(v).encode()).hexdigest()
                for k, v in sorted(self.outputs.items())}

    def add_word(self, word: PathWord, tags: Sequence[str], used_fallback: bool) -> None:
        self.stages.update(tags)
        self.word_lengths.append(word.length)
        self.word_segments.append(word.switches)
        self.fallbacks += int(used_fallback)


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rnd}")


def run_cli(argv: List[str]) -> Tuple[int, str, float]:
    """markoff.cli.main in process: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli_mod.main(argv)
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _note_vertices_result(sp, args, out):
    sp.info["vertices"] = len(out)


def _note_vertices_arg(sp, args, out):
    sp.info["vertices"] = len(args[0])


def _note_count(sp, args, out):
    sp.info["count"] = len(out)


def _note_spectral(sp, args, out):
    sp.info["vertices"] = len(args[0])
    sp.info["iterations"] = out.iterations
    sp.info["residual"] = out.residual


# ---------------------------------------------------------------- graph-sweep

class GraphSweep:
    name = "graph-sweep"
    # the eigensolver the bounds flow imports on first use
    imports = ("scipy.sparse.linalg",)
    # the machine-speed probe (probe.py) closest to the work: numpy arrays
    probe = "array"
    CONNECTIVITY_BAND = (940, 1000)
    BOUNDS_BAND = (151, 199)

    def __init__(self):
        self.conn = checks.primes_between(*self.CONNECTIVITY_BAND)
        self.bounds = checks.primes_between(*self.BOUNDS_BAND)

    def composition(self) -> dict:
        return {"connectivity_primes": self.conn, "bounds_primes": self.bounds,
                "requests_per_round": len(self.conn) + len(self.bounds),
                "order": "seeded shuffle per round"}

    def make_round(self, rng: random.Random) -> list:
        items = [("connectivity", p) for p in self.conn] + [("bounds", p) for p in self.bounds]
        rng.shuffle(items)
        return items

    def context(self, seed: int, tracer: Optional[Tracer] = None):
        return None

    def instrument(self, tracer: Tracer, res: Pass):
        return tracer.patch([
            (SurfaceGraph, "build", "graph.build", _note_vertices_result),
            (graph_mod, "surface_arrays", "graph.surface_arrays", _note_vertices_result),
            (graph_mod, "components", "graph.components", _note_vertices_arg),
            (cli_mod, "spectral_gap", "graph.spectral_gap", _note_spectral),
            (lifts_mod, "bound_report", "lifts.bound_report", None),
        ])

    def request(self, item, ctx, res: Pass, rnd: int, tracer: Optional[Tracer]) -> None:
        cmd, p = item
        argv = [cmd, "-p", str(p)]
        with _span(tracer, "cli.main"):
            rc, out, dt = run_cli(argv)
        if rc == 0:
            check = checks.check_connectivity if cmd == "connectivity" else checks.check_bounds
            reason, refused = check(out, p), False
        else:
            # exit 4 claims a disconnected graph, a wrong answer; others refuse
            reason, refused = f"{cmd} p={p} exited {rc}", rc != 4
        if res.tally.record(reason, refused):
            res.answered += 1
        res.timings.add(dt, dt, cmd)
        res.flow_vertices[cmd] += checks.vertex_count(p)
        res.keep(cmd, rnd, out)


# ---------------------------------------------------------------- path-cli

class PathCli:
    name = "path-cli"
    imports = ()
    probe = "interp"
    BAND = (200, 1100)
    # one request per prime puts 14 samples beyond p90 in every round
    REQUESTS_PER_PRIME = 1

    def __init__(self):
        self.primes = checks.primes_between(*self.BAND)

    def composition(self) -> dict:
        return {"primes": self.primes, "requests_per_prime_per_round": self.REQUESTS_PER_PRIME,
                "requests_per_round": self.REQUESTS_PER_PRIME * len(self.primes),
                "targets": "uniform on X*(p)", "order": "seeded shuffle per round"}

    def make_round(self, rng: random.Random) -> list:
        order = list(self.primes) * self.REQUESTS_PER_PRIME
        rng.shuffle(order)
        return [(p, checks.random_point(p, rng)) for p in order]

    def context(self, seed: int, tracer: Optional[Tracer] = None):
        return None

    def instrument(self, tracer: Tracer, res: Pass):
        """Spans inside `markoff path`: construct_path and what it calls,
        including the BFS fallback, which imports its graph functions from
        markoff.graph at call time and so gets the wrapped ones."""
        def note_route(sp, args, path):
            res.add_word(path.word, path.stage_tags(), path.used_fallback)

        return tracer.patch([
            (cli_mod, "construct_path", "paths.construct_path", note_route),
            (paths_mod, "_constructive_stages", "paths.constructive_stages", None),
            (Classifier, "__init__", "core.Classifier", None),
            (Classifier, "maximal_values", "core.maximal_values", _note_count),
            (PathWord, "apply_mod", "words.apply_mod", None),
            (SurfaceGraph, "build", "graph.build", _note_vertices_result),
            (graph_mod, "surface_arrays", "graph.surface_arrays", _note_vertices_result),
            (graph_mod, "bfs", "graph.bfs", _note_vertices_arg),
            (graph_mod, "word_to", "graph.word_to", None),
        ])

    def request(self, item, ctx, res: Pass, rnd: int, tracer: Optional[Tracer]) -> None:
        p, target = item
        argv = ["path", "-p", str(p), "--to", ",".join(map(str, target))]
        with _span(tracer, "cli.main"):
            rc, out, dt = run_cli(argv)
        if rc != 0:
            reason, refused = f"path p={p} to {target} exited {rc}", True
        elif not out.endswith("\n") or "\n" in out[:-1]:
            reason, refused = f"path p={p}: expected one line, got {out[:80]!r}", False
        else:
            reason, refused = checks.check_word(out[:-1], p, target), False
        if res.tally.record(reason, refused):
            res.answered += 1
        res.timings.add(dt, dt)
        res.keep("words", rnd, out)


# ---------------------------------------------------------------- lift-batch

class LiftBatch:
    name = "lift-batch"
    imports = ()
    probe = "interp"
    P = 2017
    DIGIT_CAP = 5 * 10 ** 4
    UNIFORM, OUTSIDE_CAGE = 80, 20
    WARM_TARGETS = 3

    def composition(self) -> dict:
        return {"p": self.P, "digit_cap": self.DIGIT_CAP,
                "uniform_targets_per_round": self.UNIFORM,
                "non_cage_targets_per_round": self.OUTSIDE_CAGE,
                "requests_per_round": self.UNIFORM + self.OUTSIDE_CAGE,
                "warm_up": f"Classifier, maximal_values and {self.WARM_TARGETS} routes",
                "order": "seeded shuffle per round"}

    def make_round(self, rng: random.Random) -> list:
        p = self.P
        targets = [checks.random_point(p, rng) for _ in range(self.UNIFORM)]
        while len(targets) < self.UNIFORM + self.OUTSIDE_CAGE:
            t = checks.random_point(p, rng)
            if not checks.in_cage(t, p):
                targets.append(t)
        rng.shuffle(targets)
        return targets

    def context(self, seed: int, tracer: Optional[Tracer] = None) -> Classifier:
        """The shared per-prime context, warmed with a few routes so the
        maximal-value sweep and mesh are paid here, not by the first request."""
        rng = random.Random(f"{self.name}:{seed}:warm")
        warm = [checks.random_point(self.P, rng) for _ in range(self.WARM_TARGETS)]
        with _span(tracer, "core.Classifier"):
            cls = Classifier(self.P)
        with _span(tracer, "core.maximal_values") as sp:
            count = len(cls.maximal_values())
            if tracer is not None:
                sp.info["count"] = count
        for t in warm:
            with _span(tracer, "paths.construct_path"):
                construct_path(self.P, t, cls=cls)
        return cls

    def instrument(self, tracer: Tracer, res: Pass):
        return tracer.patch([(PathWord, "apply_mod", "words.apply_mod", None)])

    def request(self, target, cls: Classifier, res: Pass, rnd: int,
                tracer: Optional[Tracer]) -> None:
        p = self.P
        t0 = time.perf_counter()
        try:
            with _span(tracer, "paths.construct_path"):
                path = construct_path(p, target, cls=cls)
            t1 = time.perf_counter()
            with _span(tracer, "lifts.replay_integer"):
                lift = lifts_mod.replay_integer(path.word, digit_cap=self.DIGIT_CAP)
            t2 = time.perf_counter()
        except REFUSALS as err:
            dt = time.perf_counter() - t0
            res.tally.record(f"lift p={p} to {target}: {err}", refused=True)
            res.timings.add(dt, dt)
            return
        text = str(path.word)
        reason = checks.check_word(text, p, target)
        if reason is None:
            reason = checks.check_lift(lift, checks.parse_word(text), p, target)
        if res.tally.record(reason):
            res.answered += 1
        res.timings.add(t1 - t0, t2 - t0)
        res.add_word(path.word, path.stage_tags(), path.used_fallback)
        if lift.exact:
            res.lifts_exact += 1
        else:
            res.lifts_log += 1
        res.keep("words", rnd, text + "\n")


WORKLOADS = {w.name: w for w in (GraphSweep, PathCli, LiftBatch)}
