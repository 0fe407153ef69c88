"""The thirteen acceptance checks, in order, one pass/fail line each.

Each check prints (and registers for the terminal summary) a single line:

    criterion NN PASS  <what was checked, with the measured numbers>

and fails the test when the contract is not met.  Stated runtime budgets are
asserted, not aspirational.
"""

import math
import random
import time
from pathlib import Path

import numpy as np

import conftest
import oracles
from markoff import cli, core, field, graph, lifts, paths
from markoff.core import Classifier
from markoff.field import sqrt_mod
from markoff.words import PathWord

GOLDEN = Path(__file__).parent / "golden"
ARTIFACTS = Path(__file__).parent / "artifacts"

PRIMES_61 = [p for p in range(5, 62) if field.is_probable_prime(p)]
PRIMES_199 = [p for p in range(5, 200) if field.is_probable_prime(p)]
PRIMES_300 = [p for p in range(5, 301) if field.is_probable_prime(p)]
PRIMES_1000 = [p for p in range(5, 1001) if field.is_probable_prime(p)]


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    conftest.acceptance_lines.append(line)
    print(line)
    assert ok, line


def _random_word(rng, max_length=14):
    steps = []
    budget = rng.randint(1, max_length)
    last_axis = 0
    while budget > 0:
        axis = rng.choice([a for a in (1, 2, 3) if a != last_axis])
        n = rng.randint(1, budget) * rng.choice((1, -1))
        steps.append((axis, n))
        budget -= abs(n)
        last_axis = axis
    return PathWord.from_steps(steps)


def _random_point(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        disc = (9 * a * a * b * b - 4 * (a * a + b * b)) % p
        r = sqrt_mod(disc, p)
        if r is None:
            continue
        x = (a, b, (3 * a * b + r) * ((p + 1) // 2) % p)
        if x != (0, 0, 0) and core.on_surface(x, p):
            return x


def _coords(p):
    keys = graph.surface_arrays(p)
    x3 = keys % p
    x2 = (keys // p) % p
    x1 = keys // (p * p)
    return np.stack([x1, x2, x3], axis=1)


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    rows = paths.seed_table(PRIMES_199)
    got = []
    for p, n, pts in rows:
        walk = ", ".join(f"({a},{b},{c})" for a, b, c in pts)
        got.append(f"{p} rot1^{n} : {walk}")
    elapsed = time.perf_counter() - t0
    want = (GOLDEN / "seed_paths.txt").read_text().strip().splitlines()
    same = [l.split() for l in got] == [l.split() for l in want]
    report(1, same and elapsed < 5.0,
           f"seed walks match the golden table for all {len(rows)} primes "
           f"5..199 in {elapsed:.2f}s (budget 5s)")


def test_criterion_02_order_law():
    t0 = time.perf_counter()
    checked = 0
    for p in PRIMES_199:
        cls = Classifier(p)
        occurring = np.unique(_coords(p)).tolist()
        for v in occurring:
            c = cls.classify(v)
            if c.kind == core.HYPERBOLIC:
                ok = (p - 1) % c.order == 0
            elif c.kind == core.ELLIPTIC:
                ok = (p + 1) % c.order == 0
            else:
                ok = (c.order in (p, 2 * p)
                      and v in (cls.two_thirds, cls.minus_two_thirds))
            if not ok:
                report(2, False, f"value {v} mod {p}: {c.kind} of order {c.order}")
            checked += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 120,
           f"order law (divides p-1 / p+1, parabolic in {{p,2p}} at +-2/3) holds "
           f"for {checked} occurring coordinate values, primes 5..199, "
           f"in {elapsed:.1f}s (budget 2min)")


def test_criterion_03_conic_sizes():
    checked = 0
    for p in PRIMES_199:
        cls = Classifier(p)
        coords = _coords(p)
        expected = np.empty(p, dtype=np.int64)
        expected[0] = 2 * p - 2 if p % 4 == 1 else 0
        for v in range(1, p):
            kind = cls.classify(v).kind
            if kind == core.HYPERBOLIC:
                expected[v] = p - 1
            elif kind == core.ELLIPTIC:
                expected[v] = p + 1
            else:
                # parabolic sections have constant discriminant -4v^2, a
                # square only when -1 is: 2p points or none
                expected[v] = 2 * p if p % 4 == 1 else 0
        for axis in range(3):
            counts = np.bincount(coords[:, axis], minlength=p)
            if not np.array_equal(counts, expected):
                bad = int(np.nonzero(counts != expected)[0][0])
                report(3, False,
                       f"conic x{axis+1}={bad} mod {p}: size {counts[bad]}, "
                       f"expected {expected[bad]}")
            checked += p
    report(3, True,
           f"conic sizes match class (p-1 / p+1 / parabolic 2p or empty; "
           f"degenerate value 0 sized 2p-2 or empty) for {checked} "
           f"(axis, value) pairs, primes 5..199")


def test_criterion_04_orbit_equals_conic():
    checked = split_cases = 0
    for p in PRIMES_61:
        cls = Classifier(p)
        pts = oracles.surface_points(p)
        for v in cls.maximal_values():
            for axis in (1, 2, 3):
                conic = {t for t in pts if t[axis - 1] == v}
                if not conic:
                    # -2/3 is maximal but its section is empty for p = 3 mod 4
                    continue
                orbit = set(oracles.orbit(min(conic), axis, p))
                if v == 0:
                    # degenerate split conic: two disjoint half orbits
                    rest = conic - orbit
                    other = set(oracles.orbit(min(rest), axis, p)) if rest else set()
                    ok = orbit | other == conic and not orbit & other
                    split_cases += 1
                else:
                    ok = orbit == conic
                if not ok:
                    report(4, False,
                           f"axis {axis} value {v} mod {p}: orbit does not "
                           f"cover its conic")
                checked += 1
    report(4, True,
           f"orbit = conic for every maximal (axis, value) pair, primes 5..61 "
           f"exhaustively ({checked} pairs; the {split_cases} degenerate "
           f"value-0 conics at p=5 are covered by their two half orbits)")


def _matpow2(P, n, p):
    """[[0,1],[-1,P]]^n mod p by square and multiply."""
    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p,
        )
    out = (1, 0, 0, 1)
    base = (0, 1, (-1) % p, P % p)
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


def test_criterion_05_lucas_identity():
    rng = random.Random(5)
    for _ in range(1000):
        p = rng.choice(PRIMES_199)
        x = rng.randrange(p)
        n = rng.randrange(0, 1001)
        P = 3 * x % p
        u_n, u_n1 = core.lucas_pair(P, n, p)
        u_nm1 = (P * u_n - u_n1) % p
        if _matpow2(P, n, p) != ((-u_nm1) % p, u_n, (-u_n) % p, u_n1):
            report(5, False, f"matrix power mismatch at p={p}, x={x}, n={n}")
        if (u_n * u_n - u_n1 * u_nm1) % p != 1:
            report(5, False, f"Lucas determinant != 1 at p={p}, x={x}, n={n}")
    report(5, True,
           "rotation matrix power equals the Lucas matrix entrywise and "
           "u_n^2 - u_(n+1)u_(n-1) = 1 for 1000 random (p, x, n<=1000) samples")


def test_criterion_06_fibonacci_form():
    for n in range(101):
        word = PathWord.from_steps([(1, n)] if n else [])
        got = lifts.replay_integer(word).coords
        want = (1, oracles.fib(2 * n - 1), oracles.fib(2 * n + 1))
        if got != want:
            report(6, False, f"first-axis power n={n}: {got} != {want}")
    report(6, True,
           "integer replay of the n-th first-axis power equals "
           "(1, F(2n-1), F(2n+1)) exactly for n <= 100")


def test_criterion_07_growth_bound():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10_000):
        word = _random_word(rng)
        got = lifts.replay_integer(word)
        bound = lifts.growth_bound_ln(word)
        if got.log_size > bound * (1 + 1e-9):
            report(7, False, f"word {word}: ln size {got.log_size} > bound {bound}")
        if bound:
            worst = max(worst, got.log_size / bound)
    report(7, True,
           f"ln(size) <= 2^(s-1) prod(|n_i|+1) ln(3*eps) for 10^4 random "
           f"reduced words of length <= 14 (worst ratio {worst:.3f})")


def test_criterion_08_partition_lemma():
    for ell in range(1, 21):
        brute = max(math.prod(k + 1 for k in part)
                    for part in oracles.partitions(ell))
        if brute != 2 ** ell or brute > 5 ** ell:
            report(8, False, f"l={ell}: enumeration {brute}, 2^l {2 ** ell}, cap {5 ** ell}")
    report(8, True,
           "max of prod(n_i+1) over partitions of l, by brute-force enumeration, "
           "is 2^l (all-ones partition) and stays <= 5^l for l <= 20")


def test_criterion_09_connectivity():
    t0 = time.perf_counter()
    total = 0
    for p in PRIMES_1000:
        rep = graph.connectivity_check(p)
        if not rep.connected:
            report(9, False, f"p={p}: components of sizes {rep.sizes}")
        if rep.vertices != graph.vertex_count_formula(p):
            report(9, False, f"p={p}: {rep.vertices} vertices != formula")
        total += rep.vertices
    elapsed = time.perf_counter() - t0
    report(9, elapsed < 600,
           f"graph connected for all {len(PRIMES_1000)} primes 5..1000 "
           f"({total} vertices total) in {elapsed:.1f}s (budget 10min)")


def test_criterion_10_path_soundness():
    t0 = time.perf_counter()
    cls31 = Classifier(31)
    pts31 = oracles.surface_points(31)
    # 868 = 31^2 - 3*31; the count follows the p = 3 mod 4 vertex formula
    assert len(pts31) == graph.vertex_count_formula(31) == 868
    fallbacks = replayed = 0
    for x in pts31:
        path = paths.construct_path(31, x, cls=cls31)
        fallbacks += path.used_fallback
        if oracles.replay_mod(path.word.steps, 31) != x:
            report(10, False, f"replay missed {x} mod 31")
        if any(abs(n) > 62 for _, n in path.word.steps):
            report(10, False, f"exponent above 2p on the path to {x} mod 31")
        replayed += 1
    rng = random.Random(10)
    for p in PRIMES_199:
        cls = Classifier(p)
        small = oracles.surface_points(p) if p <= 31 else None
        for k in range(500):
            x = rng.choice(small) if small else _random_point(rng, p)
            path = paths.construct_path(p, x, cls=cls)
            fallbacks += path.used_fallback
            if path.word.apply_mod((1, 1, 1), p) != x:
                report(10, False, f"replay missed {x} mod {p}")
            if k % 10 == 0 and oracles.replay_mod(path.word.steps, p) != x:
                report(10, False, f"oracle replay missed {x} mod {p}")
            if any(abs(n) > 2 * p for _, n in path.word.steps):
                report(10, False, f"exponent above 2p on the path to {x} mod {p}")
            replayed += 1
    elapsed = time.perf_counter() - t0
    report(10, fallbacks == 0,
           f"constructed paths reach their targets for all 868 points of "
           f"X*(31) and 500 random targets per prime 5..199 "
           f"({replayed} paths, exponents <= 2p, {fallbacks} BFS fallbacks) "
           f"in {elapsed:.1f}s")


def test_criterion_11_cage_share():
    shares = []
    rows = [cli.CAGE_CSV_HEADER]
    for p in PRIMES_300:
        vertices, cage, extra = cli.cage_counts(p)
        share = 100.0 * (cage + extra) / vertices
        shares.append(share)
        rows.append(f"{p},{vertices},{cage},{extra},{share:.3f},"
                    f"{cli.cage_share_heuristic(p):.6f}")
    ARTIFACTS.mkdir(exist_ok=True)
    (ARTIFACTS / "cage_share.csv").write_text("\n".join(rows) + "\n")
    mean = sum(shares) / len(shares)
    report(11, 70.0 <= mean <= 90.0,
           f"mean cage-or-order-p share over primes 5..300 is {mean:.2f}% "
           f"(contract band [70, 90]; per-prime rows in "
           f"tests/artifacts/cage_share.csv)")


def test_criterion_12_level14_distribution():
    t0 = time.perf_counter()
    sizes = lifts.tree_level_log_sizes(14)
    count_ok = len(sizes) == lifts.tree_level_count(14) == 24_576
    # the level-14 bound instance: fourteen unit segments
    unit_word = PathWord.from_steps([(1 + k % 2, 1) for k in range(14)])
    bound = lifts.growth_bound_ln(unit_word)
    top = max(sizes)
    ARTIFACTS.mkdir(exist_ok=True)
    rows = [cli.LEVEL_CSV_HEADER] + [
        f"{lo:.6f},{hi:.6f},{c}" for lo, hi, c in lifts.histogram(sizes, 40)
    ]
    (ARTIFACTS / "level14_hist.csv").write_text("\n".join(rows) + "\n")
    elapsed = time.perf_counter() - t0
    report(12, count_ok and top <= bound,
           f"level 14 of the rotation tree: 24,576 nodes, max ln size "
           f"{top:.1f} <= unit-exponent growth bound {bound:.4g} "
           f"(histogram in tests/artifacts/level14_hist.csv, {elapsed:.1f}s)")


def test_criterion_13_bound_evaluations():
    pins = (lifts.construction_exponent(5) == 1_405_536
            and lifts.parabolic_exponent(5) == 2_420)
    t31 = field.tau(31 * 31 - 1)
    climb_ok = (t31 == 28 and math.isclose(
        lifts.climb_exponent_ln(31),
        math.log(96) + (4 + t31 / 2) * math.log(63), rel_tol=1e-12))
    h_min = float("inf")
    for p in PRIMES_199:
        rep = graph.spectral_gap(graph.SurfaceGraph.build(p))
        if rep.h_lower <= 0:
            report(13, False, f"no positive expansion bound at p={p}")
        h_min = min(h_min, rep.h_lower)
        alpha = lifts.expander_alpha_ln(p, rep.h_lower)
        if not (math.isfinite(alpha) and alpha > 0):
            report(13, False, f"expander exponent not finite at p={p}")
    grid = [0.01, 0.05, 0.1, 0.5, 1.0, 2.0]
    alphas = [lifts.expander_alpha_ln(31, h) for h in grid]
    mono = all(a > b for a, b in zip(alphas, alphas[1:]))
    rng = random.Random(13)
    covered = 0
    for p in (5, 29, 31, 61, 101, 199):
        cls = Classifier(p)
        exponent_ln = lifts.ln_big(lifts.construction_exponent(p))
        for _ in range(40):
            word = paths.construct_path(p, _random_point(rng, p), cls=cls).word
            lift = lifts.replay_integer(word, digit_cap=10_000)
            if lifts.bound_covers(lift.log_size, exponent_ln) is not True:
                report(13, False, f"a produced lift escapes the bound at p={p}")
            covered += 1
    for p, target in ((29, (1, 1, 2)), (59, (1, 34, 30))):
        lift = lifts.minimal_lift_search(p, target)
        exponent_ln = lifts.ln_big(lifts.construction_exponent(p))
        if lifts.bound_covers(lift.log_size, exponent_ln) is not True:
            report(13, False, f"search lift escapes the bound at p={p}")
        covered += 1
    report(13, pins and climb_ok and mono,
           f"exponent pins hold (96(2p+1)^4 = 1,405,536 and 20(2p+1)^2 = "
           f"2,420 at p=5; climb uses t = tau(p^2-1) = 28 at p=31); expansion "
           f"bound certified positive for all primes <= 199 (min h "
           f"{h_min:.4f}); alpha strictly decreasing on the h grid; all "
           f"{covered} produced lifts lie under the construction bound")
