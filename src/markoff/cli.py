"""Command line front end.

Every subcommand is a thin wrapper over the library: table and figure data
come out as text or CSV on stdout (or --out), never as images.  Range
commands iterate primes in increasing order and assemble output in that
order regardless of worker count, so a fixed invocation gives byte-identical
output.  MARKOFF_THREADS sets the worker count for ranges, capped at the cpu
count; the default is 1 (serial), and a value that is not a positive integer
is a domain error.  Each command's parser has only the flags it reads.

Exit codes: 0 success, 2 usage or domain error (a flag the command does not
read, a bad prime, point or MARKOFF_THREADS), 3 constructive failure or a
refused cap, 4 disconnected graph.
"""

import argparse
import os
import sys
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import field, lifts
from .core import Classifier, check_point, is_maximal
from .errors import CapExceeded, ConstructionError, DomainError
from .graph import (DEFAULT_ENUM_CAP, DEFAULT_SPECTRAL_CAP, SurfaceGraph,
                    connectivity_check, shortest_path, spectral_gap, to_dot,
                    vertex_csv)
from .paths import SEED, construct_path, seed_table

CAGE_CSV_HEADER = "p,vertices,cage,parabolic_extra,share,heuristic"
LEVEL_CSV_HEADER = "ln_size_lo,ln_size_hi,count"


def parse_point(text: str) -> Tuple[int, int, int]:
    try:
        a, b, c = (int(s) for s in text.split(","))
    except ValueError:  # a part that is no integer, or not three parts
        raise DomainError(f"point literal must be three integers x1,x2,x3, got {text!r}")
    return (a, b, c)


def parse_prime_range(text: str) -> List[int]:
    try:
        a, b = (int(s) for s in text.split(".."))
    except ValueError:  # an endpoint that is no integer, or not two endpoints
        raise DomainError(f"prime range must be A..B with integer endpoints, got {text!r}")
    if a < 5 or b < a:
        raise DomainError(f"prime range endpoints must satisfy 5 <= A <= B, got {text!r}")
    return [p for p in range(a | 1, b + 1, 2) if field.is_probable_prime(p)]


def _primes_arg(args, default: str) -> List[int]:
    if args.prime is not None:
        return [field.require_odd_prime(args.prime)]
    return parse_prime_range(args.primes or default)


def _pool_map(fn, items: Sequence) -> List:
    """Ordered map over primes, fanned out to at most MARKOFF_THREADS and cpu_count workers.
    Workers are spawned with one BLAS thread each (a forked child keeps the parent's
    BLAS thread pool, and oversubscribes); the parent's environment is restored.
    A MARKOFF_THREADS that is not a positive integer raises DomainError."""
    text = os.environ.get("MARKOFF_THREADS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise DomainError(f"MARKOFF_THREADS must be a positive integer, got {text!r}")
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    saved = dict(os.environ)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            return list(pool.map(fn, items, chunksize=1))
    finally:
        os.environ.clear()
        os.environ.update(saved)


def _emit(lines: Sequence[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- seed-paths

def _seed_line(p: int) -> str:
    ((_, n, pts),) = seed_table([p])
    if n is None:
        return f"{p} none : no first-axis power up to 5 reaches the cage"
    walk = ", ".join(f"({a},{b},{c})" for a, b, c in pts)
    return f"{p} rot1^{n} : {walk}"


def cmd_seed_paths(args) -> int:
    primes = _primes_arg(args, default="5..199")
    _emit(_pool_map(_seed_line, primes), args.out)
    return 0


# ---------------------------------------------------------------- cage-stats

def cage_share_heuristic(p: int) -> float:
    """Independence heuristic for the chance a coordinate has maximal order:
    1/p + phi(p-1)/(p-1) + phi(p^2-1)/((p-1)(p^2-1))."""
    return (1 / p + field.phi(p - 1) / (p - 1)
            + field.phi(p * p - 1) / ((p - 1) * (p * p - 1)))


def cage_counts(p: int, cap: int = DEFAULT_ENUM_CAP) -> Tuple[int, int, int]:
    """(vertices, cage members, order-p parabolic extras) for one prime.

    A point is a cage member when some coordinate has maximal rotation
    order; the extras have a 2/3 coordinate (rotation order p) and no
    maximal one.
    """
    g = SurfaceGraph.build(p, cap=cap)
    cls = Classifier(p)
    maxvals = np.array(cls.maximal_values(), dtype=np.int32)
    in_cage = np.isin(g.coords, maxvals).any(axis=1)
    extra = (g.coords == cls.two_thirds).any(axis=1) & ~in_cage
    return len(g), int(in_cage.sum()), int(extra.sum())


def _cage_row(p: int, cap: int) -> str:
    vertices, cage, extra = cage_counts(p, cap=cap)
    share = 100.0 * (cage + extra) / vertices
    return f"{p},{vertices},{cage},{extra},{share:.3f},{cage_share_heuristic(p):.6f}"


def cmd_cage_stats(args) -> int:
    primes = _primes_arg(args, default="5..300")
    rows = _pool_map(partial(_cage_row, cap=args.cap_enum), primes)
    _emit([CAGE_CSV_HEADER] + rows, args.out)
    return 0


# ---------------------------------------------------------------- level-dist

def cmd_level_dist(args) -> int:
    sizes = lifts.tree_level_log_sizes(args.level, digit_cap=args.cap_digits)
    want = lifts.tree_level_count(args.level)
    if len(sizes) != want:
        raise ConstructionError(
            f"level {args.level} produced {len(sizes)} nodes, expected {want}"
        )
    rows = [
        f"{lo:.6f},{hi:.6f},{count}"
        for lo, hi, count in lifts.histogram(sizes, args.bins)
    ]
    _emit([LEVEL_CSV_HEADER] + rows, args.out)
    return 0


# ---------------------------------------------------------------- point ops

def _require_target(args) -> Tuple[int, Tuple[int, int, int]]:
    if args.prime is None or args.to is None:
        raise DomainError("this command needs -p and --to x1,x2,x3")
    p = field.require_odd_prime(args.prime)
    return p, check_point(parse_point(args.to), p)


def _path_word(p, target, method: str, cap_enum: int):
    if method == "bfs":
        g = SurfaceGraph.build(p, cap=cap_enum)
        return shortest_path(g, SEED, target)
    return construct_path(p, target, cap_enum=cap_enum).word


def cmd_path(args) -> int:
    p, target = _require_target(args)
    _emit([str(_path_word(p, target, args.method, args.cap_enum))], args.out)
    return 0


def cmd_lift(args) -> int:
    p, target = _require_target(args)
    word = _path_word(p, target, args.method, args.cap_enum)
    lift = lifts.replay_integer(word, digit_cap=args.cap_digits)
    lines = [f"word: {word}"]
    if lift.exact:
        sys.set_int_max_str_digits(max(args.cap_digits + 10, 4300))
        lines.append(f"lift: {lift.coords[0]},{lift.coords[1]},{lift.coords[2]}")
    else:
        size = lift.log_size / lifts.LN10
        lines.append(f"lift: log10_size={size:.6f}" if size < 1e10 else f"lift: log10_size={size:.16g}")
    _emit(lines, args.out)
    return 0


def cmd_classify(args) -> int:
    p, target = _require_target(args)
    cls = Classifier(p)
    lines = []
    for i, v in enumerate(target, start=1):
        c = cls.classify(v)
        flag = "yes" if c.maximal else "no"
        lines.append(f"x{i}={v}: {c.kind}, ord {c.order}, maximal: {flag}")
    lines.append(f"point in cage: {'yes' if is_maximal(target, cls) else 'no'}")
    _emit(lines, args.out)
    return 0


# ------------------------------------------------------------- graph-level

def _connectivity_line(p: int, cap: int) -> Tuple[str, bool]:
    rep = connectivity_check(p, cap=cap)
    if rep.connected:
        return f"p={p}: connected, {rep.vertices} vertices", True
    sizes = " ".join(str(s) for s in rep.sizes)
    return f"p={p}: disconnected, {rep.vertices} vertices in components {sizes}", False


def cmd_connectivity(args) -> int:
    primes = _primes_arg(args, default="5..199")
    results = _pool_map(partial(_connectivity_line, cap=args.cap_enum), primes)
    _emit([line for line, _ in results], args.out)
    return 0 if all(ok for _, ok in results) else 4


def cmd_export(args) -> int:
    if args.prime is None:
        raise DomainError("export needs -p")
    p = field.require_odd_prime(args.prime)
    g = SurfaceGraph.build(p, cap=args.cap_enum)
    _emit(list(to_dot(g) if args.format == "dot" else vertex_csv(g)), args.out)
    return 0


def _bound_row(p: int, cap_enum: int, cap_spectral: int, seed: int) -> str:
    g = SurfaceGraph.build(p, cap=cap_enum)
    rep = spectral_gap(g, seed=seed, cap=cap_spectral)
    if rep.h_lower <= 0:
        raise ConstructionError(f"no positive expansion bound certified at p = {p}")
    return lifts.bound_report(p, rep.h_lower).csv_row()


def cmd_bounds(args) -> int:
    primes = _primes_arg(args, default="5..199")
    rows = _pool_map(
        partial(_bound_row, cap_enum=args.cap_enum,
                cap_spectral=args.cap_spectral, seed=args.seed),
        primes,
    )
    _emit([lifts.BOUND_CSV_HEADER] + rows, args.out)
    return 0


# ------------------------------------------------------------------ driver

# Each flag's option strings and add_argument spec, declared once.
FLAGS = [
    (("-p", "--prime"), dict(type=int, help="single prime modulus (> 3)")),
    (("--primes",), dict(metavar="A..B", help="inclusive prime range, endpoints >= 5")),
    (("--to",), dict(metavar="x1,x2,x3", help="target point, coordinates in [0, p)")),
    (("--method",), dict(choices=("route", "bfs"), default="route",
                         help="path construction: cage routing or graph BFS")),
    (("--out",), dict(help="write output here instead of stdout")),
    (("--seed",), dict(type=int, default=0, help="seed for randomized iterations")),
    (("--cap-enum",), dict(type=int, default=DEFAULT_ENUM_CAP,
                           help="largest prime the graph builder will enumerate")),
    (("--cap-spectral",), dict(type=int, default=DEFAULT_SPECTRAL_CAP,
                               help="largest prime for eigenvalue estimation")),
    (("--cap-digits",), dict(type=int, default=lifts.DEFAULT_DIGIT_CAP,
                             help="decimal digits before lifts switch to log tracking")),
    (("--level",), dict(type=int, required=True, help="rotation tree level")),
    (("--bins",), dict(type=int, default=40, help="histogram bin count")),
    (("--format",), dict(choices=("dot", "csv"), default="dot", help="export format")),
]

# command -> (function, the flags it reads besides --out, one-line help)
COMMANDS = {
    "seed-paths": (cmd_seed_paths, "-p --primes",
                   "first-axis walks from (1,1,1) into the cage, one line per prime"),
    "cage-stats": (cmd_cage_stats, "-p --primes --cap-enum",
                   "CSV of cage membership counts and share per prime"),
    "level-dist": (cmd_level_dist, "--level --bins --cap-digits",
                   "histogram CSV of ln sizes at one tree level"),
    "path": (cmd_path, "-p --to --method --cap-enum", "rotation word from (1,1,1) to --to"),
    "lift": (cmd_lift, "-p --to --method --cap-enum --cap-digits",
             "integer lift of --to along the constructed word"),
    "classify": (cmd_classify, "-p --to", "per-coordinate class, order, and cage membership"),
    "connectivity": (cmd_connectivity, "-p --primes --cap-enum",
                     "component check per prime (exit 4 if split)"),
    "export": (cmd_export, "-p --format --cap-enum", "whole-graph export, --format dot or csv"),
    "bounds": (cmd_bounds, "-p --primes --seed --cap-enum --cap-spectral",
               "CSV of evaluated size-bound exponents per prime"),
}


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command: only the flags it reads, plus --out."""
    _, flags, text = COMMANDS[name]
    wanted = flags.split() + ["--out"]
    parser = argparse.ArgumentParser(prog=f"markoff {name}", description=text)
    for names, spec in FLAGS:
        if names[0] in wanted:
            parser.add_argument(*names, **spec)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch on the first argument, then parse the rest with that command's parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    listing = "\n".join(f"  {name:<14}{text}" for name, (_, _, text) in COMMANDS.items())
    top = argparse.ArgumentParser(
        prog="markoff", usage="%(prog)s [-h] command [flags]",
        description="Markoff triples mod p: orbits, paths, lifts, and graph data.",
        epilog=f"commands:\n{listing}\n\n'markoff COMMAND --help' lists a command's flags."
               "\nSet MARKOFF_THREADS to parallelize prime-range commands.",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("command", choices=COMMANDS, metavar="command")
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        top.error(f"{argv[0]} goes after the command: markoff COMMAND [flags]")
    name = top.parse_args(argv[:1]).command
    args = command_parser(name).parse_args(argv[1:])
    try:
        return COMMANDS[name][0](args)
    except (DomainError, ConstructionError, CapExceeded) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, DomainError) else 3


if __name__ == "__main__":
    sys.exit(main())
