"""Markoff triples over F_p and the rotation moves that act on them.

The surface is x1^2 + x2^2 + x3^2 = 3*x1*x2*x3, with the all-zero point
removed.  A Vieta move flips one coordinate to the other root of its
quadratic; a rotation composes a Vieta move with a transposition so that one
coordinate stays fixed and the other two advance along the conic section that
the fixed coordinate pins down:

    rot1(x1, x2, x3) = (x1, x3, 3*x1*x3 - x2)
    rot2(x1, x2, x3) = (x3, x2, 3*x2*x3 - x1)
    rot3(x1, x2, x3) = (x2, 3*x2*x3 - x1, x3)

The inverse is the same move with the moved pair swapped before and after,
rot_i^-1 = s rot_i s, so `rot` writes each axis's formula once, for F_p, for
the integers (p = None) and for numpy coordinate columns.

On the moved pair, rot_i acts as the SL2 matrix [[0, 1], [-1, 3*x_i]], so
powers of a rotation reduce to a constant-recursive sequence
u_0 = 0, u_1 = 1, u_{k+2} = 3*x_i*u_{k+1} - u_k, which `lucas_pair` evaluates
in O(log n) by fast doubling, mod p or, when p is None, over the integers.

A coordinate value x is classified by (3x)^2 - 4, the square of the
matrix's trace less four: zero means parabolic (x = +-2/3, orbit
length p or 2p), a nonzero square means hyperbolic (the eigenvalues live in
F_p and the order divides p - 1), a non-square means elliptic (the
eigenvalues live in F_{p^2} with norm 1, order dividing p + 1).  A coordinate
is *maximal* when that order is as large as its class allows (p - 1, p + 1,
or 2p); the cage is the set of points with a maximal coordinate.

Orders come from the Lucas sequence as well: M^k = [[-u_{k-1}, u_k],
[-u_k, u_{k+1}]], so M^k = I exactly when (u_k, u_{k+1}) = (0, 1).  The
classifier starts from p -+ 1 and strips prime factors while that holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import field
from .errors import DomainError

Triple = Tuple[int, int, int]

SEED: Triple = (1, 1, 1)

PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
ELLIPTIC = "elliptic"

# 0-based positions of the pair moved by each rotation, ascending.
_MOVED = {1: (1, 2), 2: (0, 2), 3: (0, 1)}


def on_surface(x: Triple, p: int) -> bool:
    x1, x2, x3 = x
    return (x1 * x1 + x2 * x2 + x3 * x3 - 3 * x1 * x2 * x3) % p == 0


def rot(x: Triple, i: int, p: Optional[int], sign: int = 1) -> Triple:
    """rot_i(x), or rot_i^-1(x) when sign is -1, mod p or, when p is None,
    over the integers; the coordinates may also be int64 numpy arrays, as in
    graph.  The inverse is the same formula with the moved pair swapped
    before and after: rot_i^-1 = s rot_i s."""
    x1, x2, x3 = x
    if i == 1:
        if sign < 0:
            x2, x3 = x3, x2
        v = 3 * x1 * x3 - x2
        v = v if p is None else v % p
        return (x1, x3, v) if sign > 0 else (x1, v, x3)
    if i == 2:
        if sign < 0:
            x1, x3 = x3, x1
        v = 3 * x2 * x3 - x1
        v = v if p is None else v % p
        return (x3, x2, v) if sign > 0 else (v, x2, x3)
    if i == 3:
        if sign < 0:
            x1, x2 = x2, x1
        v = 3 * x2 * x3 - x1
        v = v if p is None else v % p
        return (x2, v, x3) if sign > 0 else (v, x2, x3)
    raise ValueError(f"rotation axis must be 1, 2 or 3, got {i}")


def lucas_pair(P: int, n: int, p: Optional[int]) -> Tuple[int, int]:
    """(u_n, u_{n+1}) mod p for u_0=0, u_1=1, u_{k+2} = P*u_{k+1} - u_k;
    over the integers, with no reduction, when p is None.

    Fast doubling: u_{2k} = u_k*(2*u_{k+1} - P*u_k), u_{2k+1} = u_{k+1}^2 - u_k^2.
    Requires n >= 0; negative indices follow from u_{-n} = -u_n at call sites.
    """
    if n < 0:
        raise ValueError("lucas_pair wants n >= 0")
    a, b = 0, 1  # (u_0, u_1)
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - P * a), (b - a) * (b + a)
        if bit == "1":
            a, b = b, P * b - a
        if p is not None:
            a, b = a % p, b % p
    return a, b


def rotation_power(x: Triple, i: int, n: int, p: Optional[int]) -> Triple:
    """rot_i^n(x) in O(log |n|) multiplications; over the integers when p is
    None.  It forms u_{|n|+1} = P*u_{|n|} - u_{|n|-1}, which cancels at most
    a bit, so it also runs on the interval brackets of `lifts`."""
    if n == 0:
        return x
    ja, jb = _MOVED[i]
    a, b = x[ja], x[jb]
    P = 3 * x[i - 1] if p is None else 3 * x[i - 1] % p
    u_mm1, u_m = lucas_pair(P, abs(n) - 1, p)
    u_m1 = P * u_m - u_mm1
    if n > 0:
        na, nb = u_m * b - u_mm1 * a, u_m1 * b - u_m * a
    else:
        na, nb = u_m1 * a - u_m * b, u_m * a - u_mm1 * b
    if p is not None:
        na, nb = na % p, nb % p
    t = list(x)
    t[ja], t[jb] = na, nb
    return (t[0], t[1], t[2])


@dataclass(frozen=True)
class CoordClass:
    """Classification of one coordinate value."""

    kind: str          # parabolic / hyperbolic / elliptic
    order: int         # orbit length of any surface point under the rotation fixing it
    maximal: bool      # order is p-1 (hyperbolic), p+1 (elliptic) or 2p (parabolic)


class Classifier:
    """Per-prime context: factorizations of p +- 1 and memoized coordinate classes."""

    def __init__(self, p: int):
        field.require_odd_prime(p)
        self.p = p
        self.fact_pm1 = field.factorize(p - 1)
        self.fact_pp1 = field.factorize(p + 1)
        inv3 = pow(3, p - 2, p)
        self.two_thirds = 2 * inv3 % p
        self.minus_two_thirds = (p - 2) * inv3 % p
        self._memo: Dict[int, CoordClass] = {}

    def classify(self, x: int) -> CoordClass:
        x %= self.p
        hit = self._memo.get(x)
        if hit is not None:
            return hit
        p = self.p
        disc = (9 * x * x - 4) % p
        ls = field.legendre(disc, p)
        if ls == 0:
            # x = 2/3 gives the eigenvalue +1 (order p), x = -2/3 gives -1 (order 2p).
            order = p if x == self.two_thirds else 2 * p
            cc = CoordClass(PARABOLIC, order, order == 2 * p)
        elif ls == 1:
            order = self._matrix_order(3 * x % p, p - 1, self.fact_pm1)
            cc = CoordClass(HYPERBOLIC, order, order == p - 1)
        else:
            order = self._matrix_order(3 * x % p, p + 1, self.fact_pp1)
            cc = CoordClass(ELLIPTIC, order, order == p + 1)
        self._memo[x] = cc
        return cc

    def _matrix_order(self, P: int, n: int, fact_n: Dict[int, int]) -> int:
        """Order of [[0, 1], [-1, P]], a divisor of n; M^k = I iff (u_k, u_{k+1}) = (0, 1)."""
        p = self.p
        if lucas_pair(P, n, p) != (0, 1):
            raise DomainError(f"rotation matrix for 3x = {P} mod {p} has no order dividing {n}")
        d = n
        for q in fact_n:
            while d % q == 0 and lucas_pair(P, d // q, p) == (0, 1):
                d //= q
        return d

    def is_max_value(self, x: int) -> bool:
        return self.classify(x).maximal

    def maximal_values(self) -> Tuple[int, ...]:
        """All maximal coordinate values, ascending.  Each call sweeps F_p, so
        of the commands only `cage-stats` calls it; routes test values one at
        a time with `is_max_value`."""
        return tuple(v for v in range(self.p) if self.classify(v).maximal)


def rotation_order(x: Triple, i: int, cls: Classifier) -> int:
    """Orbit length of x under rot_i: the order of [[0,1],[-1,3*x_i]].

    Equality of orbit length and matrix order holds on the punctured surface
    (a shorter orbit would force an eigenvector coincidence that only the zero
    triple satisfies); the test suite asserts it exhaustively for small p.
    """
    return cls.classify(x[i - 1]).order


def point_order(x: Triple, cls: Classifier) -> int:
    """Largest rotation order over the three coordinates."""
    return max(cls.classify(c).order for c in x)


def maximal_index(x: Triple, cls: Classifier) -> int:
    """Axis of the largest-order coordinate; cage axis preferred, lowest index on ties."""
    best, best_key = 1, None
    for i in (1, 2, 3):
        cc = cls.classify(x[i - 1])
        key = (cc.maximal, cc.order)
        if best_key is None or key > best_key:
            best, best_key = i, key
    return best


def is_maximal(x: Triple, cls: Classifier) -> bool:
    """Cage membership: some coordinate is maximal."""
    return any(cls.classify(c).maximal for c in x)


def check_point(x: Triple, p: int) -> Triple:
    """x itself, once it is checked to be nonzero, reduced and on the surface."""
    if not (
        all(0 <= c < p for c in x)
        and any(c != 0 for c in x)
        and on_surface(x, p)
    ):
        raise DomainError(f"{x} is not a nonzero surface point mod {p}")
    return x

