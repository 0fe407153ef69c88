"""Field arithmetic against exhaustive and known-value oracles."""

import random

import pytest

from markoff import field
from markoff.errors import DomainError

import oracles

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_primality_known_values():
    assert field.is_probable_prime(2)
    assert field.is_probable_prime(3)
    assert field.is_probable_prime(2**31 - 1)
    assert not field.is_probable_prime(1)
    assert not field.is_probable_prime(561)          # Carmichael
    assert not field.is_probable_prime(3215031751)   # strong pseudoprime to 2,3,5,7
    assert not field.is_probable_prime(10**12 + 1)


def test_require_odd_prime_boundaries():
    assert field.require_odd_prime(5) == 5
    for bad in (0, 1, 2, 3, 4, 9, 1001):
        with pytest.raises(DomainError):
            field.require_odd_prime(bad)


def test_primality_rejects_strong_pseudoprime_to_bases_through_37():
    n = 318665857834031151167461  # least strong pseudoprime to 2..37
    assert n == 399165290221 * 798330580441
    assert not field.is_probable_prime(n)
    with pytest.raises(DomainError):
        field.require_odd_prime(n)


def test_require_odd_prime_refuses_past_deterministic_bound():
    bound = field.MR_DETERMINISTIC_BOUND
    assert bound == 1287836182261 * 2575672364521
    # the bound itself fools every witness, which is why it is refused
    assert field.is_probable_prime(bound)
    for bad in (bound, bound + 2):
        with pytest.raises(DomainError, match="deterministic"):
            field.require_odd_prime(bad)


def test_legendre_matches_exhaustive_squares():
    for p in SMALL_PRIMES:
        sq = oracles.squares(p)
        for a in range(p):
            want = 0 if a == 0 else (1 if a in sq else -1)
            assert field.legendre(a, p) == want


def test_sqrt_mod_exhaustive_and_canonical():
    for p in SMALL_PRIMES:
        pairs = oracles.sqrt_pairs(p)
        for a in range(p):
            r = field.sqrt_mod(a, p)
            if a in pairs:
                assert r == pairs[a][0]          # canonical: the smaller root
                assert r * r % p == a
            else:
                assert r is None


def test_sqrt_mod_large_prime_spot():
    p = 10**9 + 7
    rng = random.Random(1)
    for _ in range(50):
        v = rng.randrange(1, p)
        r = field.sqrt_mod(v * v % p, p)
        assert r is not None and r * r % p == v * v % p
        assert r <= p - r


def test_factorize_known_values():
    assert field.factorize(1) == {}
    assert field.factorize(960) == {2: 6, 3: 1, 5: 1}
    assert field.factorize(31**2 - 1) == {2: 6, 3: 1, 5: 1}
    assert field.factorize(2**2 * 3**3 * 5) == {2: 2, 3: 3, 5: 1}
    n = 1000003 * 1000033  # both prime, past the trial-division bound squared
    assert field.factorize(n) == {1000003: 1, 1000033: 1}


def test_factorize_random_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        f = field.factorize(n)
        prod = 1
        for q, e in f.items():
            assert field.is_probable_prime(q)
            prod *= q**e
        assert prod == n


def test_tau_phi_known_values():
    assert field.tau(960) == 28
    assert field.phi(960) == 256
    assert field.phi(30) == 8
    assert field.tau(1) == 1 and field.phi(1) == 1
