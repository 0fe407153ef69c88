"""Integer lifts of mod-p points and the size bounds that govern them.

A rotation word replayed from (1, 1, 1) over the integers produces a triple
on the surface x1^2 + x2^2 + x3^2 = 3 x1 x2 x3 whose reduction mod p is the
word's mod-p endpoint; that triple is a lift of the endpoint and its size is
its largest coordinate.  Vieta flips send positive solutions to positive
solutions (the flipped quadratic has positive root sum and product), so every
coordinate along a replay stays a positive integer and log-domain tracking is
well defined once the exact integers outgrow the digit cap.

Along a segment rot_i^n the moved pair obeys y_{j+1} = P*y_j - y_{j-1} with
P = 3*x_i and every y_j > 0.  So y_{j+1} < lambda*y_j (lambda + 1/lambda = P),
and the second difference (P - 2)*y_j > 0 makes the sequence convex: a jump
that ends within the digit cap skipped no state past it.  So the switch-over
state, the first unit-step state past the cap, is the same for any jump
lengths, which lets `replay_integer` find it on 320-bit `Bracket`s.

Sizes obey one growth law and a family of evaluated exponents built on it:
a reduced word with s segments of exponents n_1..n_s satisfies

    ln size  <=  2^(s-1) * (|n_1|+1) * ... * (|n_s|+1) * ln(3*eps)

with eps = (3 + sqrt(5))/2.  The construction, order-climb and parabolic
routes give per-prime exponents of the polynomial kind 96(2p+1)^4,
96(2p+1)^(4+t/2) and 20(2p+1)^2, while the expander-style exponent
((p^3+3)/2)^(20/ln(1+h/3)) depends on a certified lower bound h for the
expansion constant.  All comparisons run in natural-log space with a small
relative guard band; nothing here attempts float rigor beyond that.
"""

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from . import field
from .core import SEED, Triple, rot, rotation_power
from .errors import DomainError
from .words import PathWord

GROWTH_EPS = (3 + math.sqrt(5)) / 2
LN_3EPS = math.log(3 * GROWTH_EPS)
LN2 = math.log(2)
LN10 = math.log(10)

DEFAULT_DIGIT_CAP = 10 ** 6
DEFAULT_LIFT_DEPTH = 25
REL_GUARD = 1e-9
BRACKET_BITS = 320


def ln_big(x: int) -> float:
    """Natural log of a positive integer of any length, from its bit length
    and top 53 bits; a `Bracket` raises `Undecided` unless both are decided."""
    bits = x.bit_length()
    top = x >> max(0, bits - 53)
    if top <= 0:
        raise DomainError("ln_big wants a positive integer")
    return math.log(top) + max(0, bits - 53) * LN2


class Undecided(ArithmeticError):
    """A bracket too wide for the question asked of it."""


class Bracket:
    """A nonnegative integer v known as lo*2^e <= v <= hi*2^e, with hi kept
    under BRACKET_BITS bits by rounding lo down and hi up, so exact while v
    fits.  It raises `Undecided` when its lower bound is not positive, unless
    it is exactly 0 (a cancellation can leave the sign open), and when
    `bit_length` or a right shift has more than one answer."""

    def __init__(self, lo: int, hi: int, e: int = 0):
        s = max(0, hi.bit_length() - BRACKET_BITS)
        lo, hi = lo >> s, -(-hi >> s)
        if lo < 0 or lo == 0 < hi:
            raise Undecided("bracket lower bound is not positive")
        self.lo, self.hi, self.e = lo, hi, e + s if hi else 0

    def _aligned(self, other):
        """(lo, hi, other's lo, other's hi, e), rounded outward to the larger exponent e."""
        other = other if isinstance(other, Bracket) else Bracket(other, other)
        e = max(self.e, other.e)
        d, f = e - self.e, e - other.e
        return self.lo >> d, -(-self.hi >> d), other.lo >> f, -(-other.hi >> f), e

    def __add__(self, other):
        lo, hi, olo, ohi, e = self._aligned(other)
        return Bracket(lo + olo, hi + ohi, e)

    def __sub__(self, other):
        lo, hi, olo, ohi, e = self._aligned(other)
        return Bracket(lo - ohi, hi - olo, e)

    def __rsub__(self, other):
        return Bracket(other, other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Bracket) else Bracket(other, other)
        return Bracket(self.lo * other.lo, self.hi * other.hi, self.e + other.e)

    __radd__, __rmul__ = __add__, __mul__

    def bit_length(self) -> int:
        if self.lo.bit_length() != self.hi.bit_length():
            raise Undecided("bracket bit length")
        return self.lo.bit_length() + self.e

    def __rshift__(self, s: int) -> int:
        d = s - self.e
        lo, hi = (self.lo >> d, self.hi >> d) if d >= 0 else (self.lo << -d, self.hi << -d)
        if lo != hi:
            raise Undecided("bracket leading bits")
        return lo


def _ln_product_minus(ln_a: float, ln_b: float, ln_c: float) -> float:
    """ln(3*a*b - c) from ln a, ln b, ln c, for positive result.

    Positivity holds exactly on the surface; under float error the difference
    is clamped, and coordinates never drop below 1 so the result floor is 0.
    """
    big = math.log(3) + ln_a + ln_b
    delta = big - ln_c
    if delta <= 0:
        return 0.0
    return max(0.0, big + math.log1p(-math.exp(-delta)))


def _rot_log(l: Tuple[float, float, float], i: int, sign: int) -> Tuple[float, float, float]:
    """`core.rot` on natural logs.  Each of the six cases is written out, the
    inverses too, because it fixes the float evaluation order, with the
    product's factors in axis order; swapping the moved pair around the
    forward case changes the last bit of some inverse steps."""
    l1, l2, l3 = l
    if sign > 0:
        if i == 1:
            return (l1, l3, _ln_product_minus(l1, l3, l2))
        if i == 2:
            return (l3, l2, _ln_product_minus(l2, l3, l1))
        return (l2, _ln_product_minus(l2, l3, l1), l3)
    if i == 1:
        return (l1, _ln_product_minus(l1, l2, l3), l2)
    if i == 2:
        return (_ln_product_minus(l1, l2, l3), l2, l1)
    return (_ln_product_minus(l1, l3, l2), l1, l3)


@dataclass(frozen=True)
class LiftTriple:
    """An integer surface triple, exact or tracked in natural logs only."""

    coords: Optional[Triple]
    log_coords: Tuple[float, float, float]
    exact: bool

    @property
    def log_size(self) -> float:
        return max(self.log_coords)


def _jump_length(cur: Triple, axis: int, n: int, cap_bits: int) -> int:
    """Steps of rot_axis, at most n, that surely keep cur within cap_bits:
    the moved pair grows by at most lambda = (P + sqrt(P^2 - 4))/2 a step."""
    ln_p = ln_big(3 * cur[axis - 1])
    ln_lam = ln_p + math.log((1 + math.sqrt(1 - 4 * math.exp(-2 * ln_p))) / 2)
    return max(0, min(n, int((cap_bits * LN2 - max(map(ln_big, cur))) / ln_lam) - 2))


def _replay(word: PathWord, cap_bits: int, cur: Triple):
    """(end triple, None) for a word that ends within cap_bits, else
    (switch-over triple, logs at the end).  A segment first jumps by one
    `rotation_power`, kept if it ends within the cap, then unit-steps with
    `rot` to the switch-over and with `_rot_log` past it."""
    logs = None
    for axis, n in word.steps:
        sign, left = (1 if n > 0 else -1), abs(n)
        if logs is None:
            k = _jump_length(cur, axis, left, cap_bits)
            nxt = rotation_power(cur, axis, sign * k, None)
            if max(c.bit_length() for c in nxt) <= cap_bits:
                cur, left = nxt, left - k
        for _ in range(left):
            if logs is None:
                cur = rot(cur, axis, None, sign)
                if max(c.bit_length() for c in cur) > cap_bits:
                    logs = tuple(ln_big(c) for c in cur)
            else:
                logs = _rot_log(logs, axis, sign)
    return cur, logs


def replay_integer(word: PathWord, digit_cap: int = DEFAULT_DIGIT_CAP) -> LiftTriple:
    """Apply a rotation word to (1, 1, 1), exactly while the coordinates stay
    under digit_cap decimal digits, in log-domain after; the switch-over
    clears the exactness flag.

    The word is first replayed on `Bracket`s.  Natural logs read only a bit
    length and the top 53 bits, and the switch-over state does not depend on
    jump lengths (above); so when the brackets decide every bit length the
    replay compares and the switch state's top 53 bits, the logs are the
    exact replay's.  The exact replay runs only when the word ends under the
    cap or a bracket is `Undecided` (as on some descending segments)."""
    cap_bits = max(64, int(digit_cap * LN10 / LN2))
    try:
        cur, logs = _replay(word, cap_bits, (Bracket(1, 1),) * 3)
    except Undecided:
        logs = None
    if logs is None:
        cur, logs = _replay(word, cap_bits, SEED)
    if logs is None:
        return LiftTriple(cur, tuple(ln_big(c) for c in cur), True)
    return LiftTriple(None, logs, False)


def growth_exponent(word: PathWord) -> float:
    """2^(s-1) * prod(|n_i| + 1) for the reduced word; 0 for the empty word."""
    if not word.steps:
        return 0.0
    out = 0.5
    for _, n in word.steps:
        out *= 2 * (abs(n) + 1)
    return out


def growth_bound_ln(word: PathWord) -> float:
    """Upper bound on ln(size) of the word's replay from (1,1,1)."""
    return growth_exponent(word) * LN_3EPS


def construction_exponent(p: int) -> int:
    """Size exponent 96(2p+1)^4 for the cage-route construction."""
    return 96 * (2 * p + 1) ** 4


def parabolic_exponent(p: int) -> int:
    """Size exponent 20(2p+1)^2 for the closed-form parabolic route."""
    return 20 * (2 * p + 1) ** 2


def climb_exponent_ln(p: int) -> float:
    """ln of 96(2p+1)^(4+t/2), the order-climb route exponent, where t is
    the divisor count of p^2 - 1, the cap on how many strict order increases
    a climb can make.
    """
    t = field.tau(p * p - 1)
    return math.log(96) + (4 + t / 2) * math.log(2 * p + 1)


def expander_alpha_ln(p: int, h: float, quadratic: bool = False) -> float:
    """ln of the expander-style exponent ((p^3+3)/2)^(20/ln(1+h/3)).

    The base as stated is cubic in p even though the vertex count is
    quadratic; quadratic=True evaluates the (p^2+3)/2 variant so reports can
    carry both.  h must be a positive lower bound for the expansion constant.
    """
    if h <= 0:
        raise DomainError("expander exponent needs a positive expansion bound")
    base = (p * p * p + 3) / 2 if not quadratic else (p * p + 3) / 2
    return 20 * math.log(base) / math.log1p(h / 3)


def bound_covers(ln_size: float, exponent_ln: float) -> Optional[bool]:
    """Does a size bound (3*eps)^E with ln E = exponent_ln cover ln_size?

    Returns None when the two sides agree to within the relative guard band
    (the comparison is then float noise, not evidence).  Exponents too large
    to exponentiate cover everything representable.
    """
    try:
        bound_ln = math.exp(exponent_ln) * LN_3EPS
    except OverflowError:
        return True
    if math.isinf(bound_ln):
        return True
    scale = max(abs(ln_size), abs(bound_ln), 1.0)
    if abs(ln_size - bound_ln) <= REL_GUARD * scale:
        return None
    return ln_size < bound_ln


BOUND_CSV_HEADER = (
    "p,construction_log10,expander_cubic_log10,expander_quadratic_log10,"
    "climb_log10,parabolic_log10,h_lower"
)


@dataclass(frozen=True)
class BoundReport:
    """log10 of every route exponent at one prime, plus the certified h."""

    p: int
    construction_log10: float
    expander_cubic_log10: float
    expander_quadratic_log10: float
    climb_log10: float
    parabolic_log10: float
    h_lower: float

    def csv_row(self) -> str:
        return (
            f"{self.p},{self.construction_log10:.6f},{self.expander_cubic_log10:.6f},"
            f"{self.expander_quadratic_log10:.6f},{self.climb_log10:.6f},"
            f"{self.parabolic_log10:.6f},{self.h_lower:.6g}"
        )


def bound_report(p: int, h_lower: float) -> BoundReport:
    field.require_odd_prime(p)
    return BoundReport(
        p=p,
        construction_log10=ln_big(construction_exponent(p)) / LN10,
        expander_cubic_log10=expander_alpha_ln(p, h_lower) / LN10,
        expander_quadratic_log10=expander_alpha_ln(p, h_lower, quadratic=True) / LN10,
        climb_log10=climb_exponent_ln(p) / LN10,
        parabolic_log10=ln_big(parabolic_exponent(p)) / LN10,
        h_lower=h_lower,
    )


def minimal_lift_search(p: int, target: Triple,
                        max_depth: int = DEFAULT_LIFT_DEPTH) -> Optional[LiftTriple]:
    """Smallest congruent lift found by breadth-first search of the integer
    tree rooted at (1,1,1) with children rot_1, rot_2, rot_3.

    Every generated node is congruence-checked before the residue dedupe
    prunes its expansion, so a hit is never lost to an earlier visit of the
    same residue.  This is a search baseline: it reports the smallest lift
    seen on the first level that produced one, making no global minimality
    claim, and returns None past max_depth.  Nodes beyond ten thousand
    decimal digits are not expanded; their children only grow.
    """
    field.require_odd_prime(p)
    want = (target[0] % p, target[1] % p, target[2] % p)
    guard_bits = int(10 ** 4 * LN10 / LN2)
    best: Optional[Triple] = None
    seen = {SEED}
    frontier: List[Triple] = [SEED]
    if tuple(c % p for c in SEED) == want:
        best = SEED
    for _ in range(max_depth):
        if best is not None:
            break
        nxt: List[Triple] = []
        for x in frontier:
            for axis in (1, 2, 3):
                child = rot(x, axis, None)
                if tuple(c % p for c in child) == want:
                    if best is None or max(child) < max(best):
                        best = child
                res = (child[0] % p, child[1] % p, child[2] % p)
                if res not in seen and max(child).bit_length() <= guard_bits:
                    seen.add(res)
                    nxt.append(child)
        frontier = nxt
        if not frontier:
            break
    if best is None:
        return None
    return LiftTriple(best, tuple(ln_big(c) for c in best), True)


def tree_level_log_sizes(level: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> List[float]:
    """ln(size) for every node at the given level of the rotation tree.

    The tree applies rot_1, rot_2, rot_3 from (1,1,1) and never repeats the
    axis just used, so level L holds 3 * 2^(L-1) nodes.  Depth-first with a
    fixed axis order keeps the output deterministic; integers switch to
    log-domain past the digit cap.
    """
    if level < 1:
        raise DomainError("tree level starts at 1")
    cap_bits = max(64, int(digit_cap * LN10 / LN2))
    out: List[float] = []

    def descend(node, logs, exact, depth, last_axis):
        if depth == level:
            out.append(max(logs) if not exact else float(ln_big(max(node))))
            return
        for axis in (1, 2, 3):
            if axis == last_axis:
                continue
            if exact:
                child = rot(node, axis, None)
                if max(child).bit_length() > cap_bits:
                    descend(None, tuple(ln_big(c) for c in child), False, depth + 1, axis)
                else:
                    descend(child, None, True, depth + 1, axis)
            else:
                descend(None, _rot_log(logs, axis, 1), False, depth + 1, axis)

    descend(SEED, None, True, 0, 0)
    return out


def tree_level_count(level: int) -> int:
    return 3 * 2 ** (level - 1)


def histogram(values: Iterable[float], bins: int) -> List[Tuple[float, float, int]]:
    """Equal-width histogram rows (lo, hi, count) spanning the value range."""
    vals = sorted(values)
    if not vals or bins < 1:
        return []
    lo, hi = vals[0], vals[-1]
    if lo == hi:
        return [(lo, hi, len(vals))]
    width = (hi - lo) / bins
    rows = []
    idx = 0
    for b in range(bins):
        top = hi if b == bins - 1 else lo + (b + 1) * width
        start = idx
        while idx < len(vals) and (vals[idx] <= top or b == bins - 1):
            idx += 1
        rows.append((lo + b * width, top, idx - start))
    return rows
