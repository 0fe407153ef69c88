import random
from pathlib import Path

import numpy as np
import pytest

import oracles
from markoff import paths
from markoff.core import Classifier, is_maximal, on_surface, point_order, rotation_power
from markoff.errors import ConstructionError, DomainError
from markoff.field import is_probable_prime
from markoff.graph import SurfaceGraph
from markoff.paths import (
    CagePath,
    SEED,
    cage_route,
    construct_path,
    orbit_exponent,
    parabolic_axis,
    parabolic_exit,
    seed_table,
)

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def _replay_stages(stages, p):
    x = SEED
    for stage in stages:
        for axis, n in stage.steps:
            x = rotation_power(x, axis, n, p)
        assert x == stage.endpoint, (stage.tag, x)
    return x


def test_seed_table_known_primes():
    (row29, row113) = seed_table([29, 113])
    assert row29 == (29, 2, ((1, 1, 1), (1, 1, 2), (1, 2, 5)))
    assert row113[1] == 5 and row113[2][-1] == (1, 34, 89)


def test_seed_table_steps_even_when_seed_is_caged():
    # (1,1,1) itself is already in the cage mod 5, 13 and 97, so its route
    # leg is empty; the published walk always takes at least one step.
    for p in (5, 13, 97):
        cls = Classifier(p)
        assert is_maximal(SEED, cls)
        assert cage_route(SEED, cls) == [paths.Stage("seed", (), SEED)]
        assert seed_table([p]) == [(p, 1, ((1, 1, 1), (1, 1, 2)))]


def test_seed_leg_is_constructive_below_20000():
    # The seed enters the cage like any other point: no prime needs the
    # fallback for it, including the 139 where no rot_1 power up to 5 is
    # caged (263, 353, 449, ...).  Where that walk hits and (1,1,1) has
    # order above sqrt(p), the orbit scan finds the same step count.
    primes = [p for p in range(5, 20000) if is_probable_prime(p)]
    misses = 0
    for p, n, _ in seed_table(primes):
        cls = Classifier(p)
        anchor, _ = paths._into_cage(SEED, cls)
        (leg,) = cage_route(anchor, cls)
        assert leg.tag == "seed" and is_maximal(anchor, cls), p
        assert _replay_stages([leg], p) == anchor
        if is_maximal(SEED, cls):
            assert leg.steps == (), p
        elif n is not None and point_order(SEED, cls) ** 2 > p:
            assert leg.steps == ((1, n),), p
        misses += n is None
    assert misses == 139


def test_seed_table_rows():
    (row,) = seed_table([47])
    assert row == (47, 3, ((1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13)))
    (row,) = seed_table([59])
    assert row[1] == 5
    assert row[2][-1] == (1, 34, 89 % 59)
    for p, n, pts in seed_table([5, 7, 11, 13]):
        assert len(pts) == n + 1
        assert pts[0] == SEED
        assert all(oracles.rot(a, 1, p) == b for a, b in zip(pts, pts[1:]))


def test_orbit_exponent_roundtrip_and_minimality():
    p = 29
    cls = Classifier(p)
    pts = oracles.surface_points(p)
    rng = random.Random(7)
    for _ in range(60):
        src = rng.choice(pts)
        axis = rng.choice((1, 2, 3))
        orb = oracles.orbit(src, axis, p)
        dst = rng.choice(orb)
        n = orbit_exponent(src, axis, dst, cls)
        assert n is not None
        assert rotation_power(src, axis, n, p) == dst
        assert 2 * abs(n) <= len(orb)
        if 2 * abs(n) == len(orb):
            assert n > 0  # tie between the two half-way representatives goes to +


def test_orbit_exponent_off_orbit_is_none():
    cls = Classifier(11)
    # rot_1 fixes the first coordinate, so nothing with x1 != 1 is reachable
    assert orbit_exponent((1, 1, 1), 1, (2, 2, 3), cls) is None


def _conics(p):
    """(axis, value) -> the surface points with that value on that axis."""
    out = {}
    for x in oracles.surface_points(p):
        for axis in (1, 2, 3):
            out.setdefault((axis, x[axis - 1]), []).append(x)
    return out


def test_orbit_exponent_matches_walk_small_primes():
    # Every (src, dst) pair of every conic for p <= 19, then one seeded
    # source per conic for p <= 61: the discrete log must return what the
    # walk returns, None for the points of the conic off the orbit.
    rng = random.Random(15)
    for p in PRIMES_TO_61:
        cls = Classifier(p)
        for (axis, v), pts in _conics(p).items():
            for src in pts if p <= 19 else [rng.choice(pts)]:
                want = oracles.orbit_exponents(src, axis, p)
                for dst in pts:
                    assert orbit_exponent(src, axis, dst, cls) == want.get(dst), (p, src, axis, dst)


def _conic_points(axis, v, p, rng, k):
    other = 1 if axis != 1 else 2
    out = []
    while len(out) < k:
        out.extend(paths._meet_points(axis, v, other, rng.randrange(p), p))
    return out


@pytest.mark.parametrize("p", [2017, 10007])
def test_orbit_exponent_matches_walk_large_primes(p):
    # +-2/3 (orders p and 2p) and value 0 (order 4), whose conics are empty
    # when p = 3 mod 4, non-maximal values whose conic holds several orbits,
    # and maximal ones, on seeded axes, against orbit points and random
    # points of the conic; a point with a different fixed coordinate gives None.
    cls = Classifier(p)
    rng = random.Random(p)
    small = [v for v in range(1, p) if 50 < cls.classify(v).order < p - 1][:3]
    big = [v for v in range(1, p) if cls.is_max_value(v)][:2]
    values = small + big + ([cls.two_thirds, cls.minus_two_thirds, 0] if p % 4 == 1 else [])
    missed = 0
    for v in values:
        axis = rng.choice((1, 2, 3))
        src, *others = _conic_points(axis, v, p, rng, 8)
        want = oracles.orbit_exponents(src, axis, p)
        orb = list(want)
        for dst in others + [rng.choice(orb) for _ in range(8)] + orb[:2] + orb[-2:]:
            assert orbit_exponent(src, axis, dst, cls) == want.get(dst), (p, src, axis, dst)
        missed += v in small and any(dst not in want for dst in others)
        off = _conic_points(axis, v + 1, p, rng, 1)[0]
        assert orbit_exponent(src, axis, off, cls) is None
    assert missed == len(small) == 3


def test_meet_points_lie_on_surface():
    p = 19
    rng = random.Random(3)
    sq = oracles.squares(p)
    for _ in range(200):
        a, b = rng.randrange(p), rng.randrange(p)
        ax_a, ax_b = rng.sample((1, 2, 3), 2)
        pts = paths._meet_points(ax_a, a, ax_b, b, p)
        disc = (9 * a * a * b * b - 4 * (a * a + b * b)) % p
        if disc == 0:
            assert len(pts) <= 1
        elif disc in sq:
            assert len(pts) == 2
        else:
            assert pts == ()
        for t in pts:
            assert t[ax_a - 1] == a and t[ax_b - 1] == b
            assert on_surface(t, p) and t != (0, 0, 0)


def _cage_reps(p, cls, g):
    reps = []
    for axis in (1, 2, 3):
        for a in cls.maximal_values():
            ids = np.flatnonzero(g.coords[:, axis - 1] == a)
            if len(ids):
                reps.append(g.point_of(int(ids[0])))
    return reps


def test_conic_bridge_witnesses_p19():
    # A single bridging conic does not always exist: mod 19 every nonzero z
    # whose conic meets both value 9 and value 4 has order 10 or 5, never 18
    # or 20, so the chain search needs two bridges between them.
    p = 19
    cls = Classifier(p)
    assert not any(
        paths._meet_points(1, 9, 2, z, p) and paths._meet_points(1, 4, 2, z, p)
        for z in cls.maximal_values() if z != 0
    )
    chain = paths._conic_chain((1, 9), (1, 4), cls)
    assert chain == [(1, 9), (2, 2), (3, 9), (1, 4)]  # four conics
    for (ax_a, a), (ax_b, b) in zip(chain, chain[1:]):
        assert ax_a != ax_b and cls.is_max_value(b)
        assert paths._meet_points(ax_a, a, ax_b, b, p)


def test_conic_chain_is_shortest_against_point_oracle():
    # The chain search tests meets by a Legendre symbol; the oracle reads the
    # meta-graph of maximal conics off the enumerated surface points.
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        cls = Classifier(p)
        maximal = oracles.maximal_values(p)
        links = oracles.conic_links(oracles.surface_points(p))
        conics = [(axis, v) for axis in (1, 2, 3) for v in maximal]
        for start in conics:
            for goal in conics:
                chain = paths._conic_chain(start, goal, cls)
                want = oracles.conic_distance(start, goal, links, maximal)
                if want is None:
                    assert chain is None, (p, start, goal)
                    continue
                assert chain[0] == start and chain[-1] == goal, (p, chain)
                for a, b in zip(chain, chain[1:]):
                    assert b in links[a], (p, chain)  # distinct axes that meet
                assert all(v in maximal and v != 0 for _, v in chain[1:-1]), (p, chain)
                assert len(chain) - 1 == want, (p, chain, want)


def test_cage_connect_exhaustive_pairs():
    # The chain router must join every ordered pair of cage representatives,
    # including the pairs the direct bridge misses and the split value-0
    # conic mod 5.  (0,3,4) and (3,0,4) are maximal only through a 0 on two
    # different axes, and those two conics meet only at the zero point.
    for p in (5, 19):
        cls = Classifier(p)
        g = SurfaceGraph.build(p)
        reps = _cage_reps(p, cls, g) + ([(0, 3, 4), (3, 0, 4)] if p == 5 else [])
        for x in reps:
            for y in reps:
                steps = paths.cage_connect(x, y, cls)
                cur = x
                for axis, n in steps:
                    assert n != 0
                    cur = rotation_power(cur, axis, n, p)
                assert cur == y, (p, x, y, steps)


def test_cage_route_every_maximal_point():
    # p = 5 exercises the degenerate value-0 conic (points like (0,3,4) whose
    # only maximal axis carries a 0); p = 13 has the 2p parabolic class;
    # p = 19 is the 3 mod 4 shape.
    for p in (5, 13, 19):
        cls = Classifier(p)
        for x in oracles.surface_points(p):
            if not any(cls.is_max_value(c) for c in x):
                continue
            stages = cage_route(x, cls)
            assert _replay_stages(stages, p) == x
            assert stages[0].tag == "seed"
            assert all(s.tag == "cage-hop" for s in stages[1:])
            assert len(stages) <= 2
            assert sum(len(s.steps) for s in stages[1:]) <= 4


def _check_into_cage(x, w, stages, cls):
    """The carried-over contract of the cage entry: w is in the cage, the
    stages replay from w out to x, a caged x stays put, climbs come first
    walking from x and strictly raise the point order until order^2 > p,
    and a point of order above sqrt(p) without a 2/3 coordinate needs one
    cage-entry scan."""
    p = cls.p
    assert paths.is_maximal(w, cls), (p, x)
    cur = w
    for stage in stages:
        for axis, n in stage.steps:
            cur = rotation_power(cur, axis, n, p)
        assert cur == stage.endpoint, (p, x, stage)
    assert cur == x, (p, x)
    if paths.is_maximal(x, cls):
        assert (w, stages) == (x, []), (p, x)
    tags = [s.tag for s in reversed(stages)]
    climbs = tags.count("order-climb")
    assert tags[:climbs] == ["order-climb"] * climbs, (p, x, tags)
    walk = [s.endpoint for s in reversed(stages)] + [w]
    orders = [point_order(y, cls) for y in walk]
    for j in range(climbs):
        assert orders[j] ** 2 <= p and orders[j + 1] > orders[j], (p, x, orders)
    assert orders[climbs] ** 2 > p, (p, x, orders)
    if orders[0] ** 2 > p and parabolic_axis(x, cls) is None and not paths.is_maximal(x, cls):
        assert tags == ["cage-entry"], (p, x, tags)
    return climbs


def test_into_cage_small_order_example():
    cls = Classifier(11)
    w, stages = paths._into_cage((1, 1, 1), cls)
    assert w == (1, 1, 2)
    assert stages == [paths.Stage("cage-entry", ((1, -1),), (1, 1, 1))]
    assert paths._into_cage((1, 1, 2), cls) == ((1, 1, 2), [])


def test_scan_to_cage_exhaustive_to_61():
    # Every point up to 61 enters the cage as the old dispatch (parabolic
    # exit, one orbit scan, or a climb and a recursive call) has it.
    for p in PRIMES_TO_61:
        cls = Classifier(p)
        for x in oracles.surface_points(p):
            got = paths._into_cage(x, cls)
            assert got == oracles.into_cage_reference(x, cls), (p, x)
            _check_into_cage(x, *got, cls)


def test_climb_orders_strictly_increase():
    # Every point of order at most sqrt(p) climbs to strictly larger orders
    # before it enters the cage, as the old dispatch has it.
    climbed = 0
    cases = [(p, oracles.surface_points(p)) for p in (31, 61)]
    for p in (101, 151, 199):
        cases.append((p, [tuple(map(int, c)) for c in SurfaceGraph.build(p).coords]))
    for p, pts in cases:
        cls = Classifier(p)
        for x in pts:
            if point_order(x, cls) ** 2 > p:
                continue
            got = paths._into_cage(x, cls)
            assert got == oracles.into_cage_reference(x, cls), (p, x)
            climbed += _check_into_cage(x, *got, cls) > 0
    assert climbed > 0  # the sweep must actually exercise the climb


def test_two_move_climb_p181():
    # The only climb of two moves for p <= 199; the golden words have none,
    # so this pins the order the climb stages come back in.
    path = construct_path(181, (95, 41, 95))
    assert str(path.word) == "r1^1.r3^-2.r1^77.r2^4.r3^-1.r1^-1"
    assert path.stage_tags() == ("seed", "cage-hop", "cage-entry", "order-climb", "order-climb")
    assert [s.endpoint for s in path.stages[2:]] == [(95, 149, 65), (95, 95, 65), (95, 41, 95)]
    assert not path.used_fallback


def test_parabolic_orbit_structure():
    # C_i(2/3) has 2p points and splits into two rotation orbits of length p;
    # C_i(-2/3) is a single orbit of length 2p.
    for p in (13, 17):
        cls = Classifier(p)
        pts = oracles.surface_points(p)
        for axis in (1, 2, 3):
            plus = {t for t in pts if t[axis - 1] == cls.two_thirds}
            assert len(plus) == 2 * p
            first = oracles.orbit(min(plus), axis, p)
            assert len(first) == p
            second = oracles.orbit(min(plus - set(first)), axis, p)
            assert len(second) == p
            assert set(first) | set(second) == plus
            minus = [t for t in pts if t[axis - 1] == cls.minus_two_thirds]
            assert len(minus) == 2 * p
            assert len(oracles.orbit(minus[0], axis, p)) == 2 * p
    assert on_surface((5, 1, 0), 13) and Classifier(13).two_thirds == 5


def _check_parabolic_exit(x, i, cls):
    # The exit lands where the orbit meets -2/3 on the first moved axis j.
    k, w = parabolic_exit(x, i, cls)
    j = 2 if i == 1 else 1
    assert 0 <= k < cls.p
    assert w[i - 1] == cls.two_thirds and w[j - 1] == cls.minus_two_thirds
    assert paths.is_maximal(w, cls)
    return k, w


def test_parabolic_exit_lands_in_cage():
    for p in (13, 17, 29):
        cls = Classifier(p)
        hit = 0
        for x in oracles.surface_points(p):
            i = parabolic_axis(x, cls)
            if i is None or paths.is_maximal(x, cls):
                continue
            hit += 1
            k, w = _check_parabolic_exit(x, i, cls)
            assert oracles.orbit(x, i, p)[k] == w
        assert hit > 0
    # p = 1 mod 4 is needed for a nonempty 2/3 conic; targets come from
    # meets with random values on each axis, the exit is replayed in one jump.
    p = 1000033
    cls = Classifier(p)
    rng = random.Random(p)
    hit = 0
    while hit < 60:
        i, j = rng.sample((1, 2, 3), 2)
        for x in paths._meet_points(i, cls.two_thirds, j, rng.randrange(1, p), p):
            if not paths.is_maximal(x, cls):
                hit += 1
                k, w = _check_parabolic_exit(x, i, cls)
                assert rotation_power(x, i, k, p) == w


def test_construct_path_exhaustive_p31():
    p = 31
    cls = Classifier(p)
    tags = set()
    for x in oracles.surface_points(p):
        path = construct_path(p, x, cls=cls)
        assert not path.used_fallback
        assert oracles.replay_mod(path.word.steps, p) == x
        tags.update(path.stage_tags())
        for stage in path.stages:
            for _, n in stage.steps:
                assert 0 < abs(n) <= 2 * p
    assert tags <= {"seed", "cage-hop", "cage-entry", "order-climb", "parabolic-hop"}
    assert {"seed", "cage-hop", "cage-entry"} <= tags


def test_construct_path_sampled_primes():
    for p in (29, 37, 53, 101, 199):
        cls = Classifier(p)
        pts = oracles.surface_points(p) if p <= 53 else None
        rng = random.Random(p)
        for _ in range(40):
            if pts is not None:
                x = rng.choice(pts)
            else:
                x = _random_point(rng, p)
            path = construct_path(p, x, cls=cls)
            assert not path.used_fallback
            assert oracles.replay_mod(path.word.steps, p) == x


def _random_point(rng, p):
    # random nonzero surface point: pick x1, x2 and solve the quadratic in x3
    from markoff.field import sqrt_mod

    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        disc = (9 * a * a * b * b - 4 * (a * a + b * b)) % p
        r = sqrt_mod(disc, p)
        if r is None:
            continue
        x = (a, b, (3 * a * b + r) * ((p + 1) // 2) % p)
        if x != (0, 0, 0) and on_surface(x, p):
            return x


def test_construct_path_seed_and_bad_targets():
    path = construct_path(11, (1, 1, 1))
    assert path.word.steps == () and path.stages == () and not path.used_fallback
    with pytest.raises(DomainError):
        construct_path(11, (1, 1, 3))
    with pytest.raises(DomainError):
        construct_path(11, (0, 0, 0))


def test_construct_path_parabolic_route():
    p = 13
    cls = Classifier(p)
    routed = 0
    for x in oracles.surface_points(p):
        if parabolic_axis(x, cls) is None or paths.is_maximal(x, cls):
            continue
        path = construct_path(p, x, cls=cls)
        assert "parabolic-hop" in path.stage_tags()
        assert not path.used_fallback
        routed += 1
    assert routed > 0


def test_bfs_fallback_stage_replays():
    p = 17
    target = oracles.surface_points(p)[41]
    stage = paths._bfs_fallback_stage(p, target)
    assert stage.tag == "bfs-fallback"
    assert oracles.replay_mod(stage.steps, p) == target


def test_construct_path_falls_back_when_the_route_fails(monkeypatch):
    # No prime below 20000 fails constructively, so force the failure: the
    # BFS stage then carries the whole word and the path says it fell back.
    def refuse(x, cls):
        raise ConstructionError("forced")

    monkeypatch.setattr(paths, "_constructive_stages", refuse)
    p = 17
    target = oracles.surface_points(p)[41]
    path = construct_path(p, target)
    assert path.used_fallback and path.stage_tags() == ("bfs-fallback",)
    assert oracles.replay_mod(path.word.steps, p) == target


def test_degenerate_zero_value_target_mod_5():
    # (0,3,4) mod 5 is maximal only through its value-0 coordinate, whose
    # conic splits in two orbits; the route must still land on it.
    cls = Classifier(5)
    assert [c for c in (0, 3, 4) if cls.is_max_value(c)] == [0]
    path = construct_path(5, (0, 3, 4), cls=cls)
    assert not path.used_fallback
    for x in oracles.surface_points(5):
        path = construct_path(5, x, cls=cls)
        assert not path.used_fallback


def test_construct_path_matches_golden_words():
    # p x1,x2,x3 word: 3 targets per prime 5..1100 and 20 at p = 2017, drawn
    # uniformly from X*(p) with random.Random(p).  Recorded before the conic
    # mesh was removed; the lines at 263..1039 where no rot_1 power up to 5
    # reaches the cage, and at 521 where (1,1,1) climbs, were re-recorded
    # when the seed began entering the cage like any other point.
    _check_golden_words("route_words.txt")


def test_construct_path_matches_large_prime_golden_words():
    # 10 targets each at p = 1000003 and 10000019, drawn like the ones above
    # and recorded while orbit exponents were still found by walking the
    # orbit and the chain search still expanded the goal's own axis.  The
    # third at 1000003 is the target of test_conic_chain_skips_the_goal_axis.
    _check_golden_words("route_words_large.txt")


def _check_golden_words(name):
    lines = (Path(__file__).parent / "golden" / name).read_text().splitlines()
    cls = None
    for line in lines:
        p_text, x_text, want = line.split()
        p = int(p_text)
        if cls is None or cls.p != p:
            cls = Classifier(p)
        x = tuple(int(c) for c in x_text.split(","))
        path = construct_path(p, x, cls=cls)
        assert str(path.word) == want and not path.used_fallback, line


def test_conic_chain_skips_the_goal_axis(monkeypatch):
    # The chain runs (1, 1) -> (3, 2) -> (2, 538284).  Expanding (1, 1) in
    # order tests every value on axis 2, the goal's own axis, before axis 3;
    # none of those can link to the goal, and testing them all cost 1,000,007
    # `_meets` calls before the goal axis was skipped.
    calls = []
    meets = paths._meets
    monkeypatch.setattr(paths, "_meets", lambda a, b, p: calls.append(p) or meets(a, b, p))
    path = construct_path(1000003, (181732, 538284, 733925))
    assert str(path.word) == "r1^-2.r3^29361.r2^-154808" and not path.used_fallback
    assert len(calls) <= 50


def test_construct_path_never_sweeps_maximal_values(monkeypatch):
    def refuse(self):
        raise AssertionError("the route swept F_p for the maximal values")

    monkeypatch.setattr(Classifier, "maximal_values", refuse)
    cls = Classifier(31)
    for x in oracles.surface_points(31):
        assert not construct_path(31, x, cls=cls).used_fallback
    for p in (199, 2017):
        cls = Classifier(p)
        rng = random.Random(p)
        for _ in range(40):
            assert not construct_path(p, _random_point(rng, p), cls=cls).used_fallback
