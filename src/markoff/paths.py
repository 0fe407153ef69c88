"""Constructive paths from (1, 1, 1) to any point of the mod-p surface graph.

The construction lives in the cage: the set of points with at least one
coordinate whose rotation order is maximal (p - 1, p + 1 or 2p).  For a
maximal nonzero value the rotation orbit along that axis is the whole conic
section, so two cage points can be joined by walking whole orbits: out along
the first point's maximal axis to a meet point, across a chain of bridging
conics whose fixed values also have maximal order (usually one), and in along
the second point's maximal axis.  The chain comes from a breadth-first search
that stops at the first conic adjacent to the target's and never expands onto
the target's own axis, so no route sweeps F_p for the maximal values; orbit
exponents are discrete logs in F_p[M], M the rotation matrix, not step counts.
Points outside the cage, the seed (1, 1, 1) and the target alike, are first
pushed into it by one loop: a 2/3 coordinate (rotation order exactly p)
exits at a meet point, where its orbit crosses the conic of the maximal
value -2/3 on the first moved axis; otherwise the point moves to the first
point of its rotation orbits that is better, one of strictly larger order
while its order is at most sqrt(p), a cage point after that.

A route is the seed's way into the cage reversed, a walk between the two
cage points, then the target's way into the cage reversed.  Every route is
replayed before it is returned.  A constructive miss falls back to
breadth-first search over the enumerated graph; the stage tags record which
happened so callers can tell a pure construction from a rescued one.
"""

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from . import field
from .core import (
    HYPERBOLIC,
    PARABOLIC,
    SEED,
    Classifier,
    Triple,
    check_point,
    is_maximal,
    lucas_pair,
    maximal_index,
    point_order,
    rot,
    rotation_order,
    rotation_power,
)
from .errors import ConstructionError
from .words import PathWord

# Stage tags, in the order a full route can use them.
SEED_STAGE = "seed"
CAGE_HOP = "cage-hop"
CAGE_ENTRY = "cage-entry"
ORDER_CLIMB = "order-climb"
PARABOLIC_HOP = "parabolic-hop"
BFS_FALLBACK = "bfs-fallback"


@dataclass(frozen=True)
class Stage:
    """One leg of a route: consecutive rotation steps and the point they reach."""

    tag: str
    steps: Tuple[Tuple[int, int], ...]  # (axis, signed exponent), zero exponents omitted
    endpoint: Triple


@dataclass(frozen=True)
class CagePath:
    p: int
    target: Triple
    word: PathWord
    stages: Tuple[Stage, ...]
    used_fallback: bool

    def stage_tags(self) -> Tuple[str, ...]:
        return tuple(s.tag for s in self.stages)


def _signed(n: int, order: int) -> int:
    """Representative of n mod order with the smallest |.|, + on ties."""
    r = n % order
    return r if r <= order - r else r - order


def seed_table(primes) -> List[Tuple[int, Optional[int], Tuple[Triple, ...]]]:
    """Rows (p, n, points) of the published seed walk: rot_1^k(1,1,1) for
    k = 0..n, n the least in [1, 5] landing in the cage.

    n is None (with an empty walk) for a prime where no power up to 5 works.
    Routes do not use this walk; they move the seed into the cage like any
    other point.
    """
    rows = []
    for p in primes:
        cls = Classifier(p)
        walk = [SEED]
        for _ in range(5):
            walk.append(rot(walk[-1], 1, p))
            if is_maximal(walk[-1], cls):
                rows.append((p, len(walk) - 1, tuple(walk)))
                break
        else:
            rows.append((p, None, ()))
    return rows


def _mul(g: Tuple[int, int], h: Tuple[int, int], P: int, p: int) -> Tuple[int, int]:
    """Product in F_p[M] = F_p[t]/(t^2 - P t + 1), a + b t stored as (a, b)."""
    (a, b), (c, d) = g, h
    return (a * c - b * d) % p, (a * d + b * c + P * b * d) % p


def _pow(g: Tuple[int, int], n: int, P: int, p: int) -> Tuple[int, int]:
    """g^n for n >= 0 and g of norm 1: g^2 = T g - 1 for the trace T, so
    g^n = u_n(T) g - u_{n-1}(T) with the Lucas sequence of `lucas_pair`."""
    T = (2 * g[0] + P * g[1]) % p
    u, u1 = lucas_pair(T, n, p)
    return (u * g[0] - T * u + u1) % p, u * g[1] % p


def _bsgs(g: Tuple[int, int], h: Tuple[int, int], n: int, P: int, p: int) -> int:
    """k in [0, n) with g^k = h for g of order n (Shanks); 0 when there is none."""
    m = math.isqrt(n - 1) + 1
    baby, y = {}, (1, 0)
    for j in range(m):
        baby[y] = j
        y = _mul(y, g, P, p)
    giant = _pow(g, -m % n, P, p)
    for i in range(m):
        if h in baby:
            return (i * m + baby[h]) % n
        h = _mul(h, giant, P, p)
    return 0


def _dlog(g: Tuple[int, int], order: int, fact, P: int, p: int) -> int:
    """k in [0, order) with t^k = g in F_p[t]/(t^2 - P t + 1), t of that order and
    its primes among fact's (Pohlig-Hellman: k mod each prime power q^e by
    `_bsgs` in the order-q^e subgroup, joined by the Chinese remainder
    theorem).  When g is not a power of t the k is wrong."""
    k, mod = 0, 1
    for q, e in fact.items():
        qe = math.gcd(order, q ** e)
        tq, gq = _pow((0, 1), order // qe, P, p), _pow(g, order // qe, P, p)
        x = _bsgs(tq, gq, qe, P, p)
        k, mod = k + mod * ((x - k) * pow(mod, -1, qe) % qe), mod * qe
    return k


def orbit_exponent(src: Triple, axis: int, dst: Triple, cls: Classifier) -> Optional[int]:
    """Signed n of smallest |n| with rot_axis^n(src) = dst, or None if dst is
    not on the orbit.  Ties between n and n - order go to the positive side.

    On the moved pair rot_axis acts as M = [[0, 1], [-1, 3x]]; solve
    (a I + b M) src = dst (determinant x^2 on the surface) and take
    log_M(a + b M) in F_p[M] by `_dlog`.  A parabolic M^n is e^n ((1 - n) I
    + n e M) with e = 3x/2 = +-1, a closed form; x = 0 (order 4) is scanned.
    Every n is replayed, so a dst on the conic but off the orbit (a split or
    non-maximal conic) gives None."""
    p, x = cls.p, src[axis - 1]
    if dst[axis - 1] != x:
        return None
    cc = cls.classify(x)
    order, P = cc.order, 3 * x % p
    if x == 0:
        n = next((n for n in range(order) if rotation_power(src, axis, n, p) == dst), None)
    else:
        (a, b), (c, d) = ([t[i] for i in range(3) if i != axis - 1] for t in (src, dst))
        r = pow(x, -2, p)
        g = ((c * (P * b - a) - b * d) * r % p, (a * d - b * c) * r % p)
        if cc.kind == PARABOLIC:
            e = 1 if order == p else -1
            s = (g[0] + e * g[1]) % p  # e^n
            n = e * s * g[1] % p
            if order == 2 * p and (n % 2 == 0) != (s == 1):
                n += p
        else:
            fact = cls.fact_pm1 if cc.kind == HYPERBOLIC else cls.fact_pp1
            n = _dlog(g, order, fact, P, p)
    if n is None or rotation_power(src, axis, n, p) != dst:
        return None
    return _signed(n, order)


def _meet_points(axis_a: int, val_a: int, axis_b: int, val_b: int, p: int) -> Tuple[Triple, ...]:
    """Surface points with the given values on two distinct axes.

    The free coordinate m solves m^2 - 3ab m + (a^2 + b^2) = 0; zero, one or
    two points come back, one for each distinct root.
    """
    disc = (9 * val_a * val_a * val_b * val_b - 4 * (val_a * val_a + val_b * val_b)) % p
    r = field.sqrt_mod(disc, p)
    if r is None:
        return ()
    inv2 = (p + 1) // 2
    axis_m = 6 - axis_a - axis_b
    out = []
    for root in ((3 * val_a * val_b + r) % p, (3 * val_a * val_b - r) % p):
        m = root * inv2 % p
        t = [0, 0, 0]
        t[axis_a - 1] = val_a
        t[axis_b - 1] = val_b
        t[axis_m - 1] = m
        pt = (t[0], t[1], t[2])
        if pt != (0, 0, 0) and pt not in out:
            out.append(pt)
    return tuple(out)


def _meets(a: int, b: int, p: int) -> bool:
    """Whether conics of values a and b on distinct axes share a surface point:
    the free coordinate's quadratic has a root, and it is not the zero point."""
    disc = 9 * a * a * b * b - 4 * (a * a + b * b)
    return (a != 0 or b != 0) and field.legendre(disc, p) >= 0


def _conic_chain(start: Tuple[int, int], goal: Tuple[int, int],
                 cls: Classifier) -> Optional[List[Tuple[int, int]]]:
    """Shortest chain of (axis, maximal value) conics from start to goal.

    Consecutive conics use different axes and intersecting values, so every
    link carries a meet point.  Value 0 may appear only at the chain ends
    (its conic is degenerate and cannot be walked across).

    Breadth-first, each conic expanding to the other axes ascending and the
    nonzero maximal values ascending, both tested on demand (no sweep of
    F_p).  A full search stops on generating the goal, i.e. while expanding
    the first conic in queue order adjacent to the goal; generation order is
    queue order, so testing adjacency as each conic is generated, start
    first, finds the same parent a level sooner and the same chain.  With
    start == goal (two halves of a split conic) that parent is the first
    conic generated after start.  The goal's axis is never expanded: none of
    its conics can be the goal's parent, and meeting depends on values only,
    so a chain's middle conics can alternate between the other two axes."""
    p = cls.p
    goal_ax, goal_v = goal
    parent = {start: None}

    def generated() -> Iterator[Tuple[int, int]]:
        yield start
        queue = [start]
        for node in queue:
            ax, v = node
            for ax2 in (1, 2, 3):
                if ax2 == ax or ax2 == goal_ax:
                    continue
                for v2 in range(1, p):
                    cand = (ax2, v2)
                    if cand not in parent and _meets(v, v2, p) and cls.is_max_value(v2):
                        parent[cand] = node
                        queue.append(cand)
                        yield cand

    for node in generated():
        if node[0] != goal_ax and _meets(node[1], goal_v, p):
            chain = [goal]
            while node is not None:
                chain.append(node)
                node = parent[node]
            return chain[::-1]
    return None


def cage_connect(x: Triple, y: Triple, cls: Classifier) -> List[Tuple[int, int]]:
    """Rotation steps from one cage point to another, walking whole conics.

    Builds the shortest conic chain between the two maximal conics and walks
    it: each step moves along the current conic's axis to the meet point
    with the next conic, and the last meet must sit on the target's orbit.
    Zero exponents are dropped.
    """
    if x == y:
        return []
    p = cls.p

    # Shared maximal coordinate: one orbit walk suffices.
    for ax in (1, 2, 3):
        v = y[ax - 1]
        if x[ax - 1] == v and cls.is_max_value(v):
            n = orbit_exponent(x, ax, y, cls)
            if n is None:
                continue  # split conic (v = 0) with the points on different halves
            return [(ax, n)] if n else []

    ax_x, goal_ax = maximal_index(x, cls), maximal_index(y, cls)
    start, goal = (ax_x, x[ax_x - 1]), (goal_ax, y[goal_ax - 1])
    chain = _conic_chain(start, goal, cls)
    if chain is None:
        raise ConstructionError(
            f"no conic chain joins {x} and {y} mod {p} (conics {start}, {goal})"
        )

    steps: List[Tuple[int, int]] = []
    cur = x
    last = len(chain) - 2
    for t, ((ax_c, v_c), (ax_n, v_n)) in enumerate(zip(chain, chain[1:])):
        for m in _meet_points(ax_c, v_c, ax_n, v_n, p):
            n_in = orbit_exponent(cur, ax_c, m, cls)
            if n_in is None:
                continue
            if t == last:
                n_fin = orbit_exponent(m, goal_ax, y, cls)
                if n_fin is None:
                    continue  # split goal conic: this meet sits on the wrong half
            break
        else:
            raise ConstructionError(
                f"conic chain from {x} to {y} mod {p} lost its meet at {(ax_n, v_n)}"
            )
        cur = m
        if n_in:
            steps.append((ax_c, n_in))
    if n_fin:
        steps.append((goal_ax, n_fin))
    return steps


def cage_route(target: Triple, cls: Classifier) -> List[Stage]:
    """Stages from (1,1,1) to a cage point: the seed's way into the cage,
    reversed, then conic walks."""
    anchor, out = _into_cage(SEED, cls)
    leg = PathWord.from_steps(s for stage in out for s in stage.steps).inverse()
    stages = [Stage(SEED_STAGE, leg.steps, anchor)]
    if target == anchor:
        return stages
    steps = cage_connect(anchor, target, cls)
    stages.append(Stage(CAGE_HOP, tuple(steps), target))
    return stages


def orbit_scan(x: Triple, cls: Classifier) -> Iterator[Tuple[int, int, Triple]]:
    """(axis, n, rot_axis^n(x)) over the rotation orbits through x.

    The largest-order axis comes first, then the others ascending; within an
    orbit |n| ascends up to half the order with + tried before -, so each
    orbit point other than x is yielded once.  Lazy: callers stop at the
    first point they accept and pay only for the steps up to it."""
    p = cls.p
    first = maximal_index(x, cls)
    for ax in (first, *(a for a in (1, 2, 3) if a != first)):
        order = rotation_order(x, ax, cls)
        fwd = bwd = x
        for n in range(1, order // 2 + 1):
            fwd = rot(fwd, ax, p)
            yield ax, n, fwd
            if 2 * n == order:
                break
            bwd = rot(bwd, ax, p, -1)
            yield ax, -n, bwd


def parabolic_axis(x: Triple, cls: Classifier) -> Optional[int]:
    """Axis carrying a 2/3 coordinate (rotation order exactly p), if any."""
    for i in (1, 2, 3):
        if x[i - 1] == cls.two_thirds:
            return i
    return None


def parabolic_exit(x: Triple, i: int, cls: Classifier) -> Tuple[int, Triple]:
    """k in [0, p) with rot_i^k(x) in the cage, for x with x_i = 2/3.

    The conic x_i = 2/3 splits into two rotation orbits of order p, and each
    holds one of the two points where it meets -2/3, the one value of order
    2p and so always maximal, on the first moved axis; `orbit_exponent`
    finds the meet point on x's orbit and gives None for the other one.
    """
    p = cls.p
    j = 2 if i == 1 else 1
    for y in _meet_points(i, cls.two_thirds, j, cls.minus_two_thirds, p):
        n = orbit_exponent(x, i, y, cls)
        if n is not None:
            return n % p, y
    raise ConstructionError(f"no meet with -2/3 on the parabolic orbit of {x} mod {p}")


def _into_cage(x: Triple, cls: Classifier) -> Tuple[Triple, List[Stage]]:
    """A cage point w and the stages from w out to x; raises ConstructionError
    on a miss.

    A point of order at most sqrt(p) is neither maximal (order >= p - 1) nor
    parabolic (order >= p), so it climbs first.  Its order divides p - 1 or
    p + 1, hence p^2 - 1, and each climb raises it, so fewer than
    tau(p^2 - 1) climbs come before the cage entry."""
    p = cls.p
    out: List[Stage] = []
    while not is_maximal(x, cls):
        i = parabolic_axis(x, cls)
        if i is not None:
            k, w = parabolic_exit(x, i, cls)
            out.append(Stage(PARABOLIC_HOP, ((i, _signed(-k, p)),), x))
            x = w
            break
        base = point_order(x, cls)
        climb = base * base <= p
        hit = next((h for h in orbit_scan(x, cls)
                    if (point_order(h[2], cls) > base if climb else is_maximal(h[2], cls))),
                   None)
        if hit is None:
            raise ConstructionError(f"no better point on the orbits of {x} mod {p}")
        ax, n, w = hit
        out.append(Stage(ORDER_CLIMB if climb else CAGE_ENTRY, ((ax, -n),), x))
        x = w
    return x, out[::-1]


def _constructive_stages(x: Triple, cls: Classifier) -> List[Stage]:
    """Seed leg, cage hop, then the stages from the cage out to x."""
    w, out = _into_cage(x, cls)
    return cage_route(w, cls) + out


def construct_path(p: int, target: Triple, cls: Optional[Classifier] = None,
                   cap_enum: Optional[int] = None) -> CagePath:
    """Rotation word taking (1,1,1) to the target mod p, with its stage trace.

    Constructive failures fall back to a BFS shortest path over the graph
    enumerated under cap_enum (used_fallback then reports True); the produced
    word is always replayed against the target before returning."""
    if cls is None:
        cls = Classifier(p)
    x = check_point(tuple(c % p for c in target), p)
    if x == SEED:
        return CagePath(p, x, PathWord.from_steps(()), (), False)

    used_fallback = False
    try:
        stages = _constructive_stages(x, cls)
    except ConstructionError:
        stages = [_bfs_fallback_stage(p, x, cap_enum)]
        used_fallback = True

    word = PathWord.from_steps(s for stage in stages for s in stage.steps)
    if word.apply_mod(SEED, p) != x:
        raise ConstructionError(f"replay of {word} mod {p} missed the target {x}")
    return CagePath(p, x, word, tuple(stages), used_fallback)


def _bfs_fallback_stage(p: int, target: Triple, cap_enum: Optional[int] = None) -> Stage:
    from .graph import DEFAULT_ENUM_CAP, SurfaceGraph, shortest_path

    g = SurfaceGraph.build(p, DEFAULT_ENUM_CAP if cap_enum is None else cap_enum)
    word = shortest_path(g, SEED, target)
    return Stage(BFS_FALLBACK, word.steps, target)
