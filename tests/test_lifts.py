"""Integer replay, growth bounds, and the per-prime exponent evaluations."""

import math
import random
import time
from pathlib import Path

import pytest

import oracles
from markoff import core, field, lifts, paths
from markoff.errors import DomainError
from markoff.words import PathWord


def reduced(lift, p):
    return tuple(c % p for c in lift.coords)


def random_word(rng, max_length=14):
    """Reduced word with random axes and signed exponents, total length
    (sum of |n|) at most max_length."""
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


def test_replay_examples():
    five = lifts.replay_integer(PathWord.parse("r1^2"))
    assert five.exact and five.coords == (1, 2, 5)
    assert lifts.replay_integer(PathWord.parse("r1^5")).coords == (1, 34, 89)
    empty = lifts.replay_integer(PathWord.parse("e"))
    assert empty.coords == (1, 1, 1)
    assert empty.log_size == 0.0


def test_replay_matches_oracle_and_surface():
    rng = random.Random(20240811)
    for _ in range(300):
        word = random_word(rng)
        got = lifts.replay_integer(word)
        assert got.exact
        assert got.coords == oracles.replay_int(word.steps)
        assert oracles.on_integer_surface(got.coords)
        assert got.log_size == lifts.ln_big(max(got.coords))
        for p in (5, 13, 29):
            assert reduced(got, p) == oracles.replay_mod(word.steps, p)


def test_constructed_words_lift_congruently():
    rng = random.Random(61)
    for p in (13, 29, 61):
        cls = core.Classifier(p)
        pts = oracles.surface_points(p)
        for x in rng.sample(pts, 12):
            path = paths.construct_path(p, x, cls=cls)
            lift = lifts.replay_integer(path.word)
            assert lift.exact, f"constructed word outgrew the cap mod {p}"
            assert reduced(lift, p) == x
            assert oracles.on_integer_surface(lift.coords)


def test_growth_bound_dominates_random_words():
    rng = random.Random(31337)
    for _ in range(2000):
        word = random_word(rng)
        got = lifts.replay_integer(word)
        assert got.log_size <= lifts.growth_bound_ln(word) + 1e-9
    assert lifts.growth_exponent(PathWord.parse("e")) == 0.0
    # two segments of exponents 2 and -3: 2^(2-1) * 3 * 4
    assert lifts.growth_exponent(PathWord.parse("r1^2.r3^-3")) == 24.0


def test_log_domain_switchover():
    # this word grows past sixty thousand bits
    word = PathWord.from_steps([(1, 2), (2, 2)] * 6)
    exact = lifts.replay_integer(word)
    assert exact.exact and max(exact.coords).bit_length() > 60000
    rough = lifts.replay_integer(word, digit_cap=30)
    assert not rough.exact
    assert rough.coords is None
    assert math.isclose(rough.log_size, exact.log_size, rel_tol=1e-9)


def _golden_words():
    lines = (Path(__file__).parent / "golden" / "route_words.txt").read_text().splitlines()
    return [(int(p), PathWord.parse(w)) for p, _, w in (ln.split() for ln in lines if ln.strip())]


def _segment_words(rng, count):
    """Reduced words of 1-7 segments with signed exponents up to 300, each
    with a cap of 1-5000 digits, so that the switch lands inside segments."""
    out = []
    for _ in range(count):
        steps, last = [], 0
        for _ in range(rng.randint(1, 7)):
            last = rng.choice([a for a in (1, 2, 3) if a != last])
            steps.append((last, rng.choice((1, -1)) * rng.randint(1, 300)))
        out.append((PathWord.from_steps(steps), rng.randint(1, 5000)))
    return out


def _replay_fields(word, cap):
    got = lifts.replay_integer(word, cap)
    return got.coords, got.log_coords, got.exact


def test_segment_replay_matches_stepwise_oracle():
    golden = _golden_words()
    cases = [(w, cap) for cap in (1, 30, 1000) for _, w in golden]
    cases += [(w, 5 * 10**4) for p, w in golden if p == 2017]
    cases += _segment_words(random.Random(909), 500)
    assert sum(p == 2017 for p, _ in golden) == 20
    for word, cap in cases:
        assert _replay_fields(word, cap) == oracles.replay_capped(word.steps, cap), (str(word), cap)


def test_segment_jump_past_the_cap_falls_back_to_unit_steps(monkeypatch):
    # with the step estimate forced to the whole segment, jumps overshoot the
    # cap; replay must discard them and find the switch-over by unit steps.
    # The spy counts the jumps of both passes, on brackets and on integers.
    calls = []
    real_power = lifts.rotation_power

    def spy(x, i, n, p):
        y = real_power(x, i, n, p)
        calls.append((abs(n), max(c.bit_length() for c in y)))
        return y

    monkeypatch.setattr(lifts, "_jump_length", lambda cur, axis, n, cap_bits: n)
    monkeypatch.setattr(lifts, "rotation_power", spy)
    cases = [(w, 30) for _, w in _golden_words()] + _segment_words(random.Random(17), 60)
    overshoots = 0
    for word, cap in cases:
        calls.clear()
        assert _replay_fields(word, cap) == oracles.replay_capped(word.steps, cap), (str(word), cap)
        cap_bits = max(64, int(cap * lifts.LN10 / lifts.LN2))
        overshoots += sum(n > 1 and bits > cap_bits for n, bits in calls)
    assert overshoots > 100


def _inside(bracket, v):
    return bracket.lo << bracket.e <= v <= bracket.hi << bracket.e


def test_bracket_arithmetic_contains_the_exact_result(monkeypatch):
    # at a narrow width nearly every result is rounded; each must still hold
    # its exact value, and what it decides must be the exact value's answer
    monkeypatch.setattr(lifts, "BRACKET_BITS", 64)
    rng = random.Random(64)
    for _ in range(500):
        n = rng.randint(1, 300)
        lo = rng.getrandbits(n) | 1 << (n - 1)
        hi, e = lo + rng.getrandbits(rng.randint(0, n - 1)), rng.randint(0, 50)
        b = lifts.Bracket(lo, hi, e)
        assert _inside(b, lo << e) and _inside(b, hi << e) and b.hi.bit_length() <= 65
    pool = [(lifts.Bracket(v, v), v) for v in (1, 3, 2**64 - 1, 2**64, 3**300)]
    decided = 0
    for _ in range(3000):
        (a, x), (b, y) = rng.choice(pool), rng.choice(pool)
        k = rng.randint(0, 10**6)
        ops = [(lambda: a + b, x + y), (lambda: a - b, x - y), (lambda: a * b, x * y),
               (lambda: k + a, k + x), (lambda: a - k, x - k), (lambda: k - a, k - x),
               (lambda: k * a, k * x)]
        make, want = rng.choice(ops)
        try:
            got = make()
        except lifts.Undecided:
            continue
        assert want >= 0 and _inside(got, want)
        try:
            assert got.bit_length() == want.bit_length()
            if want:
                assert lifts.ln_big(got) == lifts.ln_big(want)
            decided += 1
        except lifts.Undecided:
            pass
        if want.bit_length() < 4000:
            pool.append((got, want))
    assert decided > 1000


def test_bracket_raises_where_its_answer_is_not_unique(monkeypatch):
    monkeypatch.setattr(lifts, "BRACKET_BITS", 64)
    straddle = lifts.Bracket(2**70 - 5, 2**70 + 5)  # rounds to 2^63 - 1 .. 2^63 + 1, e = 7
    for ask in (straddle.bit_length, lambda: straddle >> 60, lambda: lifts.ln_big(straddle),
                lambda: straddle - 2**70):
        with pytest.raises(lifts.Undecided):
            ask()
    above = lifts.Bracket(2**70 + 2**9, 2**70 + 2**10)
    assert above.bit_length() == 71 and above >> 60 == 2**10
    assert (lifts.Bracket(7, 7) - 7).bit_length() == 0


def test_segment_replay_at_a_narrow_bracket_width(monkeypatch):
    # at 64 bits many bracket passes are undecided and fall back to the exact
    # pass; the ones that decide must still give the stepwise oracle's fields
    monkeypatch.setattr(lifts, "BRACKET_BITS", 64)
    passes = {"decided": 0, "undecided": 0}
    real_replay = lifts._replay

    def spy(word, cap_bits, cur):
        if not isinstance(cur[0], lifts.Bracket):
            return real_replay(word, cap_bits, cur)
        try:
            out = real_replay(word, cap_bits, cur)
        except lifts.Undecided:
            passes["undecided"] += 1
            raise
        passes["decided"] += out[1] is not None
        return out

    monkeypatch.setattr(lifts, "_replay", spy)
    test_segment_replay_matches_stepwise_oracle()
    assert passes["decided"] > 100 and passes["undecided"] > 100, passes


def test_bracket_pass_matches_the_exact_pass_on_p2017_routes(monkeypatch):
    from test_acceptance import _random_point

    p, cap, rng = 2017, 5 * 10**4, random.Random(2017)
    cls = core.Classifier(p)
    words = [paths.construct_path(p, _random_point(rng, p), cls=cls).word for _ in range(300)]
    got = [_replay_fields(w, cap) for w in words]
    assert sum(not exact for _, _, exact in got) > 200

    def undecided(*args):
        raise lifts.Undecided("forced")

    monkeypatch.setattr(lifts, "Bracket", undecided)
    assert [_replay_fields(w, cap) for w in words] == got


def test_crossing_golden_words_replay_without_cap_sized_integers():
    # the p = 2017 route words that pass the default cap used to pay 0.4-0.7 s
    # each to build the exact triple at the switch-over
    crossing = 0
    for word in (w for p, w in _golden_words() if p == 2017):
        t0 = time.perf_counter()
        lift = lifts.replay_integer(word)
        if not lift.exact:
            crossing += 1
            assert time.perf_counter() - t0 < 0.05, str(word)
    assert crossing >= 5


def test_ln_big():
    assert lifts.ln_big(1) == 0.0
    assert lifts.ln_big(97) == math.log(97)
    big = 10 ** 5000 + 12345
    assert math.isclose(lifts.ln_big(big), 5000 * math.log(10), rel_tol=1e-12)
    with pytest.raises(DomainError):
        lifts.ln_big(0)


def test_route_exponent_values():
    assert lifts.construction_exponent(5) == 1405536
    assert lifts.parabolic_exponent(5) == 2420
    assert field.tau(31 * 31 - 1) == 28
    want = math.log(96) + (4 + 28 / 2) * math.log(63)
    assert math.isclose(lifts.climb_exponent_ln(31), want, rel_tol=1e-12)


def test_expander_alpha_monotone_in_h():
    grid = [0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0]
    for p in (5, 31, 199):
        cubic = [lifts.expander_alpha_ln(p, h) for h in grid]
        quad = [lifts.expander_alpha_ln(p, h, quadratic=True) for h in grid]
        assert all(a > b for a, b in zip(cubic, cubic[1:]))
        assert all(a > b for a, b in zip(quad, quad[1:]))
        assert all(q < c for q, c in zip(quad, cubic))
    with pytest.raises(DomainError):
        lifts.expander_alpha_ln(31, 0.0)


def test_bound_covers_verdicts():
    # exponent 10: bound is 10 * ln(3 eps), about 20.6
    assert lifts.bound_covers(5.0, math.log(10)) is True
    assert lifts.bound_covers(50.0, math.log(10)) is False
    on_the_line = 10 * lifts.LN_3EPS * (1 + 1e-12)
    assert lifts.bound_covers(on_the_line, math.log(10)) is None
    assert lifts.bound_covers(1e300, 1e9) is True


def test_bound_report_rows():
    rep = lifts.bound_report(31, 0.04)
    assert rep.p == 31
    assert math.isclose(rep.construction_log10,
                        math.log10(96 * 63 ** 4), rel_tol=1e-12)
    assert rep.expander_quadratic_log10 < rep.expander_cubic_log10
    row = rep.csv_row()
    assert row.startswith("31,")
    assert len(row.split(",")) == len(lifts.BOUND_CSV_HEADER.split(",")) == 7
    with pytest.raises(DomainError):
        lifts.bound_report(9, 0.04)


def test_minimal_lift_search_examples():
    got = lifts.minimal_lift_search(29, (1, 1, 2))
    assert got is not None and got.coords == (1, 1, 2)
    got = lifts.minimal_lift_search(59, (1, 34, 30))
    assert got is not None and got.coords == (1, 34, 89)
    assert reduced(got, 59) == (1, 34, 30)
    seed = lifts.minimal_lift_search(13, (1, 1, 1))
    assert seed is not None and seed.coords == (1, 1, 1)
    assert lifts.minimal_lift_search(29, (2, 2, 2), max_depth=0) is None


def test_minimal_lift_search_random_targets():
    rng = random.Random(7)
    pts = oracles.surface_points(11)
    for x in rng.sample(pts, 8):
        got = lifts.minimal_lift_search(11, x)
        assert got is not None, f"no lift found for {x} mod 11"
        assert reduced(got, 11) == x
        assert oracles.on_integer_surface(got.coords)


def test_tree_levels():
    ones = lifts.tree_level_log_sizes(1)
    assert len(ones) == 3 == lifts.tree_level_count(1)
    assert all(math.isclose(v, math.log(2)) for v in ones)
    for level in (2, 5, 8, 10):
        sizes = lifts.tree_level_log_sizes(level)
        assert len(sizes) == lifts.tree_level_count(level) == 3 * 2 ** (level - 1)
        # each step at most squares the largest coordinate and triples it
        assert max(sizes) <= (2 ** level - 1) * math.log(3) + 1e-9
        # forward rotations can descend, so (1,1,1) recurs and ln 1 = 0 shows up
        assert min(sizes) >= 0.0
    with pytest.raises(DomainError):
        lifts.tree_level_log_sizes(0)


def test_tree_level_log_domain_agrees():
    exact = lifts.tree_level_log_sizes(9)
    rough = lifts.tree_level_log_sizes(9, digit_cap=10)
    assert len(exact) == len(rough)
    for a, b in zip(exact, rough):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_histogram_rows():
    rows = lifts.histogram([0.0, 0.5, 1.0, 1.5, 2.0], 2)
    assert sum(c for _, _, c in rows) == 5
    assert rows[0][0] == 0.0 and rows[-1][1] == 2.0
    assert lifts.histogram([], 4) == []
    flat = lifts.histogram([3.0, 3.0], 4)
    assert flat == [(3.0, 3.0, 2)]
