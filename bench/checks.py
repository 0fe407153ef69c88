"""Output checks and input arithmetic that do not use the markoff package.

Everything the benchmark verifies is recomputed here from first principles,
so a bug in the library cannot hide behind its own helpers:

  * rotation words are parsed from their printed form and replayed mod p
    with 2 x 2 matrix powers (not the library's Lucas stepping);
  * an exact lift must satisfy x1^2 + x2^2 + x3^2 = 3 x1 x2 x3, reduce to the
    target mod p and stay under the growth bound of its word;
  * a log-domain lift must stay under that growth bound;
  * `connectivity` and `bounds` CLI output is parsed and compared with the
    vertex-count law |X*(p)| = p^2 +- 3p and the closed-form exponents.

Each check returns None for a correct answer or a one-line reason.
"""

import math
import re
from typing import List, Optional, Sequence, Tuple

Triple = Tuple[int, int, int]
Step = Tuple[int, int]

SEED: Triple = (1, 1, 1)
LN2 = math.log(2)
LN_3EPS = math.log(3 * (3 + math.sqrt(5)) / 2)
REL_GUARD = 1e-9

_SEGMENT = re.compile(r"r([123])\^(-?[1-9][0-9]*)")
# positions (0-based) of the pair moved by each rotation, in matrix order
_MOVED = {1: (1, 2), 2: (0, 2), 3: (0, 1)}

BOUND_HEADER = ("p,construction_log10,expander_cubic_log10,expander_quadratic_log10,"
                "climb_log10,parabolic_log10,h_lower")


# ------------------------------------------------------------ primes, points

def is_prime(n: int) -> bool:
    """Trial division; the benchmark only needs primes below a few thousand."""
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def primes_between(lo: int, hi: int) -> List[int]:
    return [n for n in range(lo, hi + 1) if n > 3 and is_prime(n)]


def prime_factors(n: int) -> List[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """Smaller square root of a mod p by exhaustive search, None if none.

    O(p), which is fine for the input sizes here and shares no code with the
    library's Tonelli-Shanks."""
    a %= p
    for r in range(p // 2 + 1):
        if r * r % p == a:
            return r
    return None


def vertex_count(p: int) -> int:
    return p * p + 3 * p if p % 4 == 1 else p * p - 3 * p


def on_surface(x: Sequence[int], p: Optional[int] = None) -> bool:
    a, b, c = x
    lhs = a * a + b * b + c * c - 3 * a * b * c
    return lhs % p == 0 if p else lhs == 0


# ------------------------------------------------------------ rotations mod p

def _mat_mul(m: Sequence[int], n: Sequence[int], p: int) -> Tuple[int, int, int, int]:
    a, b, c, d = m
    e, f, g, h = n
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


def _mat_pow(m: Sequence[int], n: int, p: int) -> Tuple[int, int, int, int]:
    out = (1, 0, 0, 1)
    while n:
        if n & 1:
            out = _mat_mul(out, m, p)
        m = _mat_mul(m, m, p)
        n >>= 1
    return out


def rotate(x: Triple, axis: int, n: int, p: int) -> Triple:
    """rot_axis^n(x) mod p: the moved pair (a, b) goes to M^n (a, b) with
    M = [[0, 1], [-1, 3 x_axis]], and M^-1 = [[3 x_axis, -1], [1, 0]]."""
    c = 3 * x[axis - 1] % p
    m = (0, 1, p - 1, c) if n >= 0 else (c, p - 1, 1, 0)
    a00, a01, a10, a11 = _mat_pow(m, abs(n), p)
    i, j = _MOVED[axis]
    t = list(x)
    t[i], t[j] = (a00 * x[i] + a01 * x[j]) % p, (a10 * x[i] + a11 * x[j]) % p
    return (t[0], t[1], t[2])


def is_maximal_value(v: int, p: int) -> bool:
    """Does the rotation fixing a coordinate equal to v have maximal order
    (p - 1 split, p + 1 non-split, 2p at v = -2/3)?"""
    disc = (9 * v * v - 4) % p
    if disc == 0:
        return (3 * v + 2) % p == 0
    group = p - 1 if pow(disc, (p - 1) // 2, p) == 1 else p + 1
    m = (0, 1, p - 1, 3 * v % p)
    return all(_mat_pow(m, group // q, p) != (1, 0, 0, 1) for q in prime_factors(group))


def in_cage(x: Triple, p: int) -> bool:
    return any(is_maximal_value(c, p) for c in x)


def random_point(p: int, rng) -> Triple:
    """Uniform point of X*(p): a uniform (x1, x2, root index) triple, retried
    until the root exists, gives every surface point probability 1/(2p^2)."""
    inv2 = (p + 1) // 2
    while True:
        x1, x2, k = rng.randrange(p), rng.randrange(p), rng.randrange(2)
        b = 3 * x1 * x2 % p
        disc = (b * b - 4 * (x1 * x1 + x2 * x2)) % p
        r = sqrt_mod(disc, p)
        if r is None or (k == 1 and r == 0):
            continue
        x3 = (b + (r if k == 0 else -r)) * inv2 % p
        if (x1, x2, x3) != (0, 0, 0):
            return (x1, x2, x3)


# ------------------------------------------------------------ words

def parse_word(text: str) -> List[Step]:
    """Segments of a printed rotation word; raises ValueError unless the text
    is a reduced word (axes alternate, no zero exponent) or 'e'."""
    text = text.strip()
    if text == "e":
        return []
    steps = []
    for part in text.split("."):
        m = _SEGMENT.fullmatch(part)
        if not m:
            raise ValueError(f"bad segment {part!r}")
        axis, n = int(m.group(1)), int(m.group(2))
        if steps and steps[-1][0] == axis:
            raise ValueError(f"word is not reduced at {part!r}")
        steps.append((axis, n))
    return steps


def replay(steps: Sequence[Step], p: int, start: Triple = SEED) -> Triple:
    x = start
    for axis, n in steps:
        x = rotate(x, axis, n, p)
    return x


def check_word(text: str, p: int, target: Triple) -> Optional[str]:
    try:
        steps = parse_word(text)
    except ValueError as err:
        return f"p={p} target={target}: malformed word: {err}"
    end = replay(steps, p)
    if end != tuple(target):
        return f"p={p} target={target}: word {text[:60]} ends at {end}"
    return None


# ------------------------------------------------------------ lifts

def growth_bound_ln(steps: Sequence[Step]) -> float:
    """ln of the size bound (3 eps)^(2^(s-1) prod(|n_i| + 1))."""
    if not steps:
        return 0.0
    e = 0.5
    for _, n in steps:
        e *= 2 * (abs(n) + 1)
    return e * LN_3EPS


def ln_int(x: int) -> float:
    bits = x.bit_length()
    if bits <= 53:
        return math.log(x)
    return math.log(x >> (bits - 53)) + (bits - 53) * LN2


def check_lift(lift, steps: Sequence[Step], p: int, target: Triple) -> Optional[str]:
    """`lift` carries .exact, .coords and .log_coords (a LiftTriple)."""
    where = f"p={p} target={target}"
    bound = growth_bound_ln(steps) * (1 + REL_GUARD) + REL_GUARD
    if lift.exact:
        x = lift.coords
        if x is None or len(x) != 3 or min(x) < 1:
            return f"{where}: exact lift is not a positive triple"
        if not on_surface(x):
            return f"{where}: exact lift is off the integer surface"
        if tuple(c % p for c in x) != tuple(target):
            return f"{where}: exact lift does not reduce to the target"
        if ln_int(max(x)) > bound:
            return f"{where}: exact lift exceeds its growth bound"
        return None
    logs = lift.log_coords
    if len(logs) != 3 or not all(math.isfinite(v) and v >= 0 for v in logs):
        return f"{where}: log-domain lift has bad coordinates {logs}"
    if max(logs) > bound:
        return f"{where}: log-domain lift {max(logs):.6g} exceeds bound {bound:.6g}"
    return None


def check_connectivity(stdout: str, p: int) -> Optional[str]:
    want = f"p={p}: connected, {vertex_count(p)} vertices\n"
    if stdout != want:
        return f"connectivity p={p}: got {stdout.strip()[:80]!r}, want {want.strip()!r}"
    return None


def check_bounds(stdout: str, p: int) -> Optional[str]:
    lines = stdout.split("\n")
    if len(lines) != 3 or lines[0] != BOUND_HEADER or lines[2] != "":
        return f"bounds p={p}: unexpected layout {stdout[:80]!r}"
    fields = lines[1].split(",")
    try:
        vals = [float(f) for f in fields]
    except ValueError:
        return f"bounds p={p}: non-numeric row {lines[1]!r}"
    if len(vals) != 7 or fields[0] != str(p):
        return f"bounds p={p}: bad row {lines[1]!r}"
    construction = math.log10(96) + 4 * math.log10(2 * p + 1)
    parabolic = math.log10(20) + 2 * math.log10(2 * p + 1)
    if abs(vals[1] - construction) > 1e-5 or abs(vals[5] - parabolic) > 1e-5:
        return f"bounds p={p}: closed-form exponents disagree in {lines[1]!r}"
    if not 0 < vals[6] <= 3:
        return f"bounds p={p}: h_lower {vals[6]} outside (0, 3]"
    return None
