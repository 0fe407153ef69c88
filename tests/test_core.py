"""Rotations, Lucas powers, and coordinate classification vs. stepwise oracles."""

import random

import pytest

from markoff import core
from markoff.core import Classifier
from markoff.errors import DomainError

import oracles

PRIMES_TO_61 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def test_rotation_closed_forms_match_vieta_composition():
    rng = random.Random(11)
    for p in (7, 11, 29):
        pts = oracles.surface_points(p)
        for x in rng.sample(pts, min(60, len(pts))):
            for i in (1, 2, 3):
                assert core.rot(x, i, p) == oracles.rot(x, i, p)
                # rot1 is swap(2,3) after the Vieta flip of coordinate 2, etc.
                assert core.rot(x, i, p)[i - 1] == x[i - 1]


def test_rot_inverse_roundtrip_everywhere_small():
    for p in (5, 13):
        for x in oracles.surface_points(p):
            for i in (1, 2, 3):
                assert core.rot(core.rot(x, i, p), i, p, -1) == x
                assert core.rot(core.rot(x, i, p, -1), i, p) == x


def test_rotations_preserve_surface():
    for p in (7, 17):
        for x in oracles.surface_points(p):
            for i in (1, 2, 3):
                assert core.on_surface(core.rot(x, i, p), p)


def test_lucas_pair_matches_stepwise_recurrence():
    rng = random.Random(2)
    for _ in range(300):
        p = rng.choice(PRIMES_TO_61 + [101, 997])
        P = rng.randrange(p)
        n = rng.randrange(0, 2000)
        u_n, u_n1 = core.lucas_pair(P, n, p)
        assert u_n == oracles.lucas_u(P, n, p)
        assert u_n1 == oracles.lucas_u(P, n + 1, p)


def test_lucas_determinant_identity():
    # u_n^2 - u_{n+1} u_{n-1} = 1: det of the power of an SL2 matrix.
    rng = random.Random(9)
    for _ in range(200):
        p = rng.choice([13, 61, 997])
        P = rng.randrange(p)
        n = rng.randrange(1, 10**6)
        u_n, u_n1 = core.lucas_pair(P, n, p)
        u_nm1 = (P * u_n - u_n1) % p
        assert (u_n * u_n - u_n1 * u_nm1) % p == 1


def test_rotation_power_matches_iteration():
    rng = random.Random(4)
    for _ in range(120):
        p = rng.choice(PRIMES_TO_61)
        pts = oracles.surface_points(p)
        x = rng.choice(pts)
        i = rng.choice((1, 2, 3))
        n = rng.randrange(-80, 80)
        assert core.rotation_power(x, i, n, p) == oracles.rot_n(x, i, n, p)
    # and a large exponent against the mod-order reduction
    p, x = 61, (1, 1, 2)
    cls = Classifier(p)
    d = core.rotation_order(x, 1, cls)
    assert core.rotation_power(x, 1, 10**9, p) == core.rotation_power(x, 1, 10**9 % d, p)


def test_rotation_power_zero_and_one():
    p, x = 29, (1, 2, 5)
    for i in (1, 2, 3):
        assert core.rotation_power(x, i, 0, p) == x
        assert core.rotation_power(x, i, 1, p) == core.rot(x, i, p)
        assert core.rotation_power(x, i, -1, p) == core.rot(x, i, p, -1)


def test_rot_is_the_unit_rotation_power_mod_p_and_over_the_integers():
    rng = random.Random(18)
    for _ in range(200):
        x = tuple(rng.randrange(-10**40, 10**40) for _ in range(3))
        for i in (1, 2, 3):
            for s in (1, -1):
                assert core.rot(x, i, None, s) == core.rotation_power(x, i, s, None)
    for p in (5, 13, 2017, 10**6 + 3, 10**9 + 7):
        for _ in range(50):
            x = tuple(rng.randrange(p) for _ in range(3))
            for i in (1, 2, 3):
                for s in (1, -1):
                    assert core.rot(x, i, p, s) == core.rotation_power(x, i, s, p)


def test_lucas_pair_integer_mode_matches_recurrence():
    for P in (-7, 3, 6, 3 * 10**20):
        a, b = 0, 1
        for n in range(201):
            assert core.lucas_pair(P, n, None) == (a, b)
            # the mod-p pair is the integer pair reduced
            for p in (5, 997, 10**9 + 7):
                assert core.lucas_pair(P, n, p) == (a % p, b % p)
            a, b = b, P * b - a


def test_rotation_power_integer_mode_matches_unit_steps():
    rng = random.Random(5)
    for _ in range(12):
        word = [(axis, rng.choice((-1, 1)) * rng.randint(1, 4))
                for axis in rng.sample((1, 2, 3), 3)]
        x = oracles.replay_int(word)
        for i in (1, 2, 3):
            for n in range(51):
                for m in (n, -n):
                    y = core.rotation_power(x, i, m, None)
                    assert y == oracles.replay_int([(i, m)], start=x)
                    assert oracles.on_integer_surface(y)


def test_classify_known_values():
    # 1 mod 5 is -2/3: parabolic of order 2p = 10.
    cc = Classifier(5).classify(1)
    assert cc.kind == core.PARABOLIC and cc.order == 10 and cc.maximal
    # 2/3 mod 5 = 4: parabolic of order p = 5, not maximal.
    cc = Classifier(5).classify(4)
    assert cc.kind == core.PARABOLIC and cc.order == 5 and not cc.maximal
    # 1 mod 11: discriminant 5 is a square mod 11, hyperbolic of order 5.
    cc = Classifier(11).classify(1)
    assert cc.kind == core.HYPERBOLIC and cc.order == 5 and not cc.maximal
    # 2 mod 11: discriminant 32 = 10 is a non-residue, elliptic of order 12, maximal.
    cc = Classifier(11).classify(2)
    assert cc.kind == core.ELLIPTIC and cc.order == 12 and cc.maximal
    # 1 mod 13: order 14 = p + 1 (so (1,1,1) is already in the cage at 13).
    assert Classifier(13).classify(1).order == 14


def test_classified_order_equals_matrix_order_exhaustive():
    for p in PRIMES_TO_61:
        cls = Classifier(p)
        for x in range(p):
            assert cls.classify(x).order == oracles.matrix_order(x, p), (p, x)


def test_orbit_length_equals_classified_order_exhaustive_small():
    # Orbit length of the point equals the matrix order of its fixed coordinate.
    for p in (5, 7, 11, 13, 17, 19):
        cls = Classifier(p)
        for x in oracles.surface_points(p):
            for i in (1, 2, 3):
                assert len(oracles.orbit(x, i, p)) == core.rotation_order(x, i, cls)


def test_parabolic_values_exist_only_for_p_1_mod_4_on_surface():
    # x = +-2/3 is always a residue class, but for p = 3 (mod 4) no surface
    # point carries it (the conic there is empty); for p = 1 (mod 4) both occur.
    for p in (13, 17, 29):
        pts = oracles.surface_points(p)
        cls = Classifier(p)
        vals = {c for t in pts for c in t}
        assert cls.two_thirds in vals and cls.minus_two_thirds in vals
    for p in (7, 11, 19, 23):
        pts = oracles.surface_points(p)
        cls = Classifier(p)
        vals = {c for t in pts for c in t}
        assert cls.two_thirds not in vals and cls.minus_two_thirds not in vals


def test_order_divides_class_group_order_exhaustive():
    for p in (29, 31):
        cls = Classifier(p)
        for x in range(p):
            cc = cls.classify(x)
            if cc.kind == core.HYPERBOLIC:
                assert (p - 1) % cc.order == 0
            elif cc.kind == core.ELLIPTIC:
                assert (p + 1) % cc.order == 0
            else:
                assert cc.order in (p, 2 * p)


def test_point_order_and_maximal_index():
    cls = Classifier(11)
    x = (1, 1, 2)  # orders 5, 5, 12
    assert core.point_order(x, cls) == 12
    assert core.maximal_index(x, cls) == 3
    assert core.is_maximal(x, cls)
    assert core.point_order((1, 1, 1), cls) == 5
    assert not core.is_maximal((1, 1, 1), cls)
    assert core.maximal_index((1, 1, 1), cls) == 1  # tie -> lowest axis


def test_maximal_values_ordering():
    # ascending, and exactly the values of largest matrix order by repeated
    # multiplication
    for p in PRIMES_TO_61:
        assert Classifier(p).maximal_values() == tuple(oracles.maximal_values(p)), p


def test_check_point_rejects_garbage():
    with pytest.raises(DomainError):
        core.check_point((0, 0, 0), 7)
    with pytest.raises(DomainError):
        core.check_point((1, 1, 3), 7)  # not on the surface mod 7
    with pytest.raises(DomainError):
        core.check_point((1, 1, 9), 7)  # not reduced
    assert core.check_point((1, 1, 2), 7) == (1, 1, 2)
