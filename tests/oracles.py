"""Brute-force reference implementations the real modules are tested against.

Everything here favors being obviously correct over being fast: triple loops,
stepwise iteration, exhaustive enumeration.  Nothing imports from the package
except where a test deliberately feeds oracle output into package input.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

Triple = Tuple[int, int, int]


def surface_points(p: int) -> List[Triple]:
    """All nonzero solutions of x1^2+x2^2+x3^2 = 3*x1*x2*x3 mod p, triple loop."""
    pts = []
    for x1 in range(p):
        for x2 in range(p):
            for x3 in range(p):
                if (x1 or x2 or x3) and (
                    x1 * x1 + x2 * x2 + x3 * x3 - 3 * x1 * x2 * x3
                ) % p == 0:
                    pts.append((x1, x2, x3))
    return pts


def squares(p: int) -> Set[int]:
    return {v * v % p for v in range(p)}


def sqrt_pairs(p: int) -> Dict[int, List[int]]:
    """square value -> sorted list of its roots, by exhaustive squaring."""
    out: Dict[int, List[int]] = {}
    for v in range(p):
        out.setdefault(v * v % p, []).append(v)
    return {k: sorted(vs) for k, vs in out.items()}


def vieta(x: Triple, i: int, p: int) -> Triple:
    """Flip coordinate i (1-based) to the other root of its quadratic."""
    t = list(x)
    j, k = [m for m in (0, 1, 2) if m != i - 1]
    t[i - 1] = (3 * t[j] * t[k] - t[i - 1]) % p
    return tuple(t)


def swap(x: Triple, i: int, j: int) -> Triple:
    t = list(x)
    t[i - 1], t[j - 1] = t[j - 1], t[i - 1]
    return tuple(t)


def rot(x: Triple, i: int, p: int) -> Triple:
    """Rotation built the long way, as transposition-after-Vieta."""
    if i == 1:
        return swap(vieta(x, 2, p), 2, 3)
    if i == 2:
        return swap(vieta(x, 1, p), 1, 3)
    if i == 3:
        return swap(vieta(x, 1, p), 1, 2)
    raise ValueError(i)


def rot_n(x: Triple, i: int, n: int, p: int) -> Triple:
    """rot_i^n by |n| single steps (inverse steps solve the step equation)."""
    for _ in range(abs(n)):
        if n > 0:
            x = rot(x, i, p)
        else:
            x = rot_inv(x, i, p)
    return x


def rot_inv(x: Triple, i: int, p: int) -> Triple:
    x1, x2, x3 = x
    if i == 1:
        return (x1, (3 * x1 * x2 - x3) % p, x2)
    if i == 2:
        return ((3 * x1 * x2 - x3) % p, x2, x1)
    if i == 3:
        return ((3 * x1 * x3 - x2) % p, x1, x3)
    raise ValueError(i)


def on_integer_surface(x: Triple) -> bool:
    a, b, c = x
    return a * a + b * b + c * c == 3 * a * b * c


def bfs_queue(adj, root: int) -> Tuple[List[int], List[int], List[int]]:
    """(depth, parent, via) of a sequential FIFO BFS over an N x 6 adjacency
    table, scanning each vertex's neighbors in column order; -1 where unset."""
    n = len(adj)
    depth, parent, via = [-1] * n, [-1] * n, [-1] * n
    depth[root] = 0
    q = deque([root])
    while q:
        u = q.popleft()
        for col, w in enumerate(adj[u]):
            w = int(w)
            if depth[w] < 0:
                depth[w], parent[w], via[w] = depth[u] + 1, u, col
                q.append(w)
    return depth, parent, via


def component_sizes(adj) -> List[int]:
    """Component sizes, descending, by repeated queue BFS over all six columns."""
    reached: Set[int] = set()
    sizes = []
    for root in range(len(adj)):
        if root not in reached:
            comp = {v for v, d in enumerate(bfs_queue(adj, root)[0]) if d >= 0}
            reached |= comp
            sizes.append(len(comp))
    return sorted(sizes, reverse=True)


def orbit(x: Triple, i: int, p: int) -> List[Triple]:
    """Forward rot_i orbit of x, starting at x, by stepping until return."""
    out = [x]
    y = rot(x, i, p)
    while y != x:
        out.append(y)
        y = rot(y, i, p)
    return out


def orbit_exponents(x: Triple, i: int, p: int) -> Dict[Triple, int]:
    """Point -> signed n of least |n| with rot_i^n(x) = point, ties to +, over
    the rot_i orbit of x, by walking it one rotation at a time."""
    orb = orbit(x, i, p)
    return {y: n if 2 * n <= len(orb) else n - len(orb) for n, y in enumerate(orb)}


def matrix_order(x: int, p: int) -> int:
    """Order of [[0,1],[-1,3x]] in SL2(F_p), by repeated multiplication."""
    a, b, c, d = 0, 1, -1 % p, 3 * x % p
    ra, rb, rc, rd = a, b, c, d
    n = 1
    while not (ra == 1 and rb == 0 and rc == 0 and rd == 1):
        ra, rb, rc, rd = (
            (ra * a + rb * c) % p,
            (ra * b + rb * d) % p,
            (rc * a + rd * c) % p,
            (rc * b + rd * d) % p,
        )
        n += 1
        if n > 4 * p + 4:
            raise AssertionError("matrix order runaway")
    return n


def maximal_values(p: int) -> List[int]:
    """Values whose rotation matrix has the largest order its class allows
    (p - 1, p + 1 or 2p), by repeated multiplication."""
    return [v for v in range(p) if matrix_order(v, p) in (p - 1, p + 1, 2 * p)]


def conic_links(points: List[Triple]) -> Dict[Tuple[int, int], Set[Tuple[int, int]]]:
    """(axis, value) -> the conics on other axes that share a surface point
    with it, read off the enumerated points."""
    links: Dict[Tuple[int, int], Set[Tuple[int, int]]] = {}
    for x in points:
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                if a != b:
                    links.setdefault((a, x[a - 1]), set()).add((b, x[b - 1]))
    return links


def conic_distance(start, goal, links, maximal) -> Optional[int]:
    """Fewest links (at least one) in a chain of maximal conics from start to
    goal whose interior conics carry nonzero values; None if there is none."""
    allowed = set(maximal)
    seen = {start}
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for node in frontier:
            for nb in links.get(node, ()):
                if nb == goal:
                    return d
                if nb[1] in allowed and nb[1] != 0 and nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return None


def lucas_u(P: int, n: int, p: int) -> int:
    """u_n of u_0=0, u_1=1, u_{k+2} = P*u_{k+1} - u_k, stepwise mod p."""
    if n < 0:
        return (-lucas_u(P, -n, p)) % p
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (P * b - a) % p
    return a


def _step_int(x: Triple, axis: int, forward: bool) -> Triple:
    x1, x2, x3 = x
    if axis == 1:
        return (x1, x3, 3 * x1 * x3 - x2) if forward else (x1, 3 * x1 * x2 - x3, x2)
    if axis == 2:
        return (x3, x2, 3 * x2 * x3 - x1) if forward else (3 * x1 * x2 - x3, x2, x1)
    return (x2, 3 * x2 * x3 - x1, x3) if forward else (3 * x1 * x3 - x2, x1, x3)


def replay_int(steps, start=(1, 1, 1)) -> Triple:
    """Apply a word over the integers, one rotation at a time."""
    x = tuple(start)
    for axis, n in steps:
        for _ in range(abs(n)):
            x = _step_int(x, axis, n > 0)
    return x


def replay_capped(steps, digit_cap: int):
    """(coords, log_coords, exact) of a word replayed from (1,1,1) one
    rotation at a time: exact integers until the largest coordinate passes
    digit_cap decimal digits, then the package's own log-domain step.  The
    logs come from `lifts.ln_big` and `lifts._rot_log` so that a
    comparison with `lifts.replay_integer` checks the exact phase and the
    switch point, not float rounding."""
    from markoff import lifts

    cap_bits = max(64, int(digit_cap * lifts.LN10 / lifts.LN2))
    x, logs = (1, 1, 1), None
    for axis, n in steps:
        for _ in range(abs(n)):
            if logs is None:
                x = _step_int(x, axis, n > 0)
                if max(x).bit_length() > cap_bits:
                    logs = tuple(lifts.ln_big(c) for c in x)
            else:
                logs = lifts._rot_log(logs, axis, 1 if n > 0 else -1)
    if logs is None:
        return x, tuple(lifts.ln_big(c) for c in x), True
    return None, logs, False


def replay_mod(steps, p: int, start=(1, 1, 1)) -> Triple:
    x = start
    for axis, n in steps:
        x = rot_n(x, axis, n, p)
    return x


def partitions(n: int) -> Iterator[Tuple[int, ...]]:
    """All integer partitions of n, parts descending."""
    if n == 0:
        yield ()
        return
    def rec(rest: int, cap: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    yield from rec(n, n)


def fib(n: int) -> int:
    """F_n with F_1 = F_2 = 1, valid for n >= -1, stepwise."""
    if n == -1:
        return 1
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a



def into_cage_reference(x: Triple, cls):
    """The cage entry as a three-way dispatch: a cage point w and the stages
    from w out to x.  Parabolic exit; one orbit scan for a cage point when
    the point order exceeds sqrt(p); otherwise a capped climb to strictly
    larger orders, then a recursive call.  `paths._into_cage` must return
    the same point and stages, and raise where this raises."""
    from markoff import paths
    from markoff.core import is_maximal, point_order
    from markoff.errors import ConstructionError

    p = cls.p
    if is_maximal(x, cls):
        return x, []

    i = paths.parabolic_axis(x, cls)
    if i is not None:
        k, w = paths.parabolic_exit(x, i, cls)
        return w, [paths.Stage(paths.PARABOLIC_HOP, ((i, paths._signed(-k, p)),), x)]

    if point_order(x, cls) ** 2 > p:
        hit = scan_to_cage_reference(x, cls)
        if hit is None:
            raise ConstructionError(f"no cage point found on the orbits of {x} mod {p}")
        ax, n, w = hit
        return w, [paths.Stage(paths.CAGE_ENTRY, ((ax, -n),), x)]

    moves = climb_orders_reference(x, cls)
    if moves is None:
        raise ConstructionError(f"order climb stalled at {x} mod {p}")
    w, out = into_cage_reference(moves[-1][2], cls)
    back = [x] + [m[2] for m in moves[:-1]]
    for (ax, n, _), prev in zip(reversed(moves), reversed(back)):
        out.append(paths.Stage(paths.ORDER_CLIMB, ((ax, -n),), prev))
    return w, out


def scan_to_cage_reference(x: Triple, cls):
    """(axis, n, point) with rot_axis^n(x) in the cage, or None: the first
    cage point of `paths.orbit_scan`; an already-maximal x returns n = 0."""
    from markoff.core import is_maximal, maximal_index
    from markoff.paths import orbit_scan

    if is_maximal(x, cls):
        return maximal_index(x, cls), 0, x
    return next((hit for hit in orbit_scan(x, cls) if is_maximal(hit[2], cls)), None)


def climb_orders_reference(x: Triple, cls):
    """Greedy climb from a point of order^2 <= p: moves (axis, n, point), each
    to the first `paths.orbit_scan` point of strictly larger point order,
    until order^2 > p.  None past tau(p^2 - 1) + 1 moves or on a stuck orbit."""
    from markoff import field
    from markoff.core import point_order
    from markoff.paths import orbit_scan

    p = cls.p
    cap = field.tau(p * p - 1) + 1
    moves = []
    cur = x
    while point_order(cur, cls) ** 2 <= p:
        if len(moves) >= cap:
            return None
        base = point_order(cur, cls)
        found = next((m for m in orbit_scan(cur, cls) if point_order(m[2], cls) > base), None)
        if found is None:
            return None
        moves.append(found)
        cur = found[2]
    return moves
