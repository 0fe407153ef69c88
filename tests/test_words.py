"""Word normalization, serialization round-trips, and mod-p application."""

import random

import pytest

from markoff.words import PathWord

import oracles


def test_reduction_merges_runs_and_drops_zeros():
    w = PathWord.from_steps([(1, 2), (1, 3), (2, 0), (3, -1), (3, 1), (1, -4)])
    # (1,5) then (3,-1)+(3,1) cancels, leaving (1,-4) adjacent to (1,5): merge to (1,1)
    assert w.steps == ((1, 1),)
    assert PathWord.from_steps([]).steps == ()
    assert PathWord.from_steps([(2, 1), (2, -1)]).steps == ()


def test_reduced_word_invariants_random():
    rng = random.Random(6)
    for _ in range(300):
        raw = [(rng.choice((1, 2, 3)), rng.randrange(-3, 4)) for _ in range(rng.randrange(0, 12))]
        w = PathWord.from_steps(raw)
        assert all(n != 0 for _, n in w.steps)
        assert all(a != b for (a, _), (b, _) in zip(w.steps, w.steps[1:]))


def test_str_parse_roundtrip():
    w = PathWord.from_steps([(1, 2), (3, -4), (2, 1)])
    assert str(w) == "r1^2.r3^-4.r2^1"
    assert PathWord.parse(str(w)) == w
    assert str(PathWord(())) == "e"
    assert PathWord.parse("e") == PathWord(())
    rng = random.Random(8)
    for _ in range(200):
        raw = [(rng.choice((1, 2, 3)), rng.randrange(-9, 10)) for _ in range(rng.randrange(0, 8))]
        w = PathWord.from_steps(raw)
        assert PathWord.parse(str(w)) == w


def test_parse_rejects_malformed():
    for bad in ("r4^1", "r1^", "r1^2,r2^1", "rot1^2", "r1^2..r2^1"):
        with pytest.raises(ValueError):
            PathWord.parse(bad)


def test_apply_mod_matches_stepwise_oracle():
    rng = random.Random(13)
    for _ in range(150):
        p = rng.choice([5, 11, 29, 61])
        pts = oracles.surface_points(p)
        x = rng.choice(pts)
        raw = [(rng.choice((1, 2, 3)), rng.randrange(-6, 7)) for _ in range(rng.randrange(0, 6))]
        w = PathWord.from_steps(raw)
        # reduction must not change the action
        assert w.apply_mod(x, p) == oracles.replay_mod(raw, p, x)


def test_inverse_and_concat():
    rng = random.Random(21)
    p = 31
    pts = oracles.surface_points(p)
    for _ in range(100):
        x = rng.choice(pts)
        raw = [(rng.choice((1, 2, 3)), rng.randrange(-4, 5)) for _ in range(5)]
        w = PathWord.from_steps(raw)
        assert w.inverse().apply_mod(w.apply_mod(x, p), p) == x
        assert w.concat(w.inverse()).steps == ()


def test_length_and_switches():
    w = PathWord.parse("r1^2.r3^-4.r2^1")
    assert w.length == 7
    assert w.switches == 3
    assert PathWord(()).length == 0 and PathWord(()).switches == 0
