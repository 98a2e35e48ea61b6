"""Closed-form graded dimensions against the rational span oracle."""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from tmeshdim import (IndexOutOfRange, MixedDirectionError, bounds, dim_M,
                      dim_power_sum, dim_power_sum_in, dim_shift, oracle,
                      span_dim, span_quotient_dim)
from tmeshdim.graded import (_GeneratorKey, _generator_key,
                             _power_sum_in_cached, box_sum,
                             single_power_terms, vertex_increment_terms)
from tmeshdim.mesh import bd_max, bd_sub
from tmeshdim.meshfile import parse_mesh_file
from tmeshdim.oracle import power_grid, sliced_quotient_dim

from .helpers import fixture_path
from .test_segment_golden import FIXTURES

MONO = ({(0, 0): 1}, (0, 0))


def test_dim_shift_box_arithmetic():
    assert dim_shift((3, 3), (0, 0)) == 16
    assert dim_shift((3, 3), (1, 2)) == 6
    assert dim_shift((3, 3), (4, 0)) == 0
    assert dim_shift((2, 5), (2, 5)) == 1


def test_dim_M_telescopes_to_the_full_box():
    levels = ((0, 0), (0, 1), (1, 2))
    m = (5, 4)
    total = sum(dim_M(levels, i, (0, 0), m) for i in range(1, 4))
    assert total == dim_shift(bd_sub(m, levels[0]), (0, 0)) == 30


def test_dim_M_is_a_box_quotient():
    levels = ((0, 0), (1, 1))
    for i in (1, 2):
        for shift in ((0, 0), (0, 2), (3, 1)):
            for m in ((3, 3), (5, 2)):
                ambient = bd_sub(bd_sub(m, levels[i - 1]), shift)
                lbox = bd_sub(bd_sub(m, levels[i]), shift) if i == 1 else None
                want = span_quotient_dim([MONO], ambient, lbox)
                assert dim_M(levels, i, shift, m) == want


def test_level_index_range_is_enforced():
    levels = ((0, 0), (1, 1))
    with pytest.raises(IndexOutOfRange):
        dim_M(levels, 3, (0, 0), (3, 3))
    with pytest.raises(IndexOutOfRange):
        dim_M(levels, 0, (0, 0), (3, 3))


def _vertex_oracle(levels, i, rH, rV, dstar_h, dstar_v, m, x0, y0):
    top = len(levels) - 1
    n_prev = levels[i - 1]
    alpha = bd_max(n_prev, dstar_h if dstar_h is not None else n_prev)
    beta = bd_max(n_prev, dstar_v if dstar_v is not None else n_prev)
    gens = [power_grid("t", y0, rH + 1, bd_sub(alpha, n_prev)),
            power_grid("s", x0, rV + 1, bd_sub(beta, n_prev))]
    ambient = bd_sub(m, n_prev)
    lbox = bd_sub(m, levels[i]) if i <= top else None
    return span_quotient_dim(gens, ambient, lbox)


def test_vertex_increment_matches_two_line_span():
    levels = ((0, 0), (1, 1))
    for i in (1, 2):
        for rH in (0, 1, 2):
            for rV in (0, 1, 2):
                for m in ((3, 3), (4, 2), (5, 5)):
                    e_h, e_v = (0, rH + 1), (rV + 1, 0)
                    got = box_sum(vertex_increment_terms(levels, i, e_h,
                                                         e_v), m)
                    want = _vertex_oracle(levels, i, rH, rV, None, None, m,
                                          Fraction(1, 3), Fraction(2))
                    assert got == want


def test_vertex_increment_with_unequal_line_deficits():
    # a T-junction line can carry a deficit above the vertex's own level
    levels = ((0, 0), (1, 1), (2, 2))
    m = (5, 5)
    for i in (1, 2, 3):
        for dstar_h, dstar_v in (((1, 1), (0, 0)), ((0, 0), (2, 2)),
                                 ((1, 1), (2, 2))):
            got = box_sum(vertex_increment_terms(levels, i, (0, 2), (2, 0),
                                                 dstar_h, dstar_v), m)
            want = _vertex_oracle(levels, i, 1, 1, dstar_h, dstar_v, m,
                                  Fraction(3, 4), Fraction(1, 2))
            assert got == want


def test_vertex_increment_is_knot_independent():
    levels = ((0, 0), (0, 1))
    e_h, e_v = (0, 2), (3, 0)
    got = box_sum(vertex_increment_terms(levels, 1, e_h, e_v), (4, 4))
    for x0, y0 in ((Fraction(1), Fraction(1)), (Fraction(5, 7), Fraction(9)),
                   (Fraction(-2), Fraction(1, 8))):
        assert _vertex_oracle(levels, 1, 1, 2, None, None, (4, 4),
                              x0, y0) == got


def test_power_sum_matches_span_rank():
    knots = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(2))
    for count in (1, 2, 3, 4):
        for degrees in ((1,) * count, (2,) * count,
                        tuple(1 + (k % 3) for k in range(count))):
            for b in ((0, 0), (1, 1), (0, 2)):
                for m in ((3, 3), (4, 2), (6, 5)):
                    gens = [power_grid("t", knots[k], degrees[k], b)
                            for k in range(count)]
                    assert (dim_power_sum(degrees, b, m, "t")
                            == span_dim(gens, m))


def test_power_sum_direction_s():
    gens = [power_grid("s", Fraction(1), 2), power_grid("s", Fraction(2), 2)]
    assert dim_power_sum((2, 2), (0, 0), (3, 3), "s") == span_dim(gens, (3, 3))
    with pytest.raises(MixedDirectionError):
        dim_power_sum((2,), (0, 0), (3, 3), "u")


def test_power_sum_saturates_at_the_box():
    # enough independent powers fill every column of the box
    assert dim_power_sum((1, 1, 1, 1), (0, 0), (3, 3), "t") == 16


def _in_oracle(levels, i, gens, m):
    top = len(levels) - 1
    ambient = bd_sub(m, levels[i - 1])
    lbox = bd_sub(m, levels[i]) if i <= top else None
    return span_quotient_dim([power_grid(*g) for g in gens], ambient, lbox)


def test_power_sum_in_single_generator_closed_form():
    levels = ((0, 0), (1, 1), (2, 2))
    for i in (1, 2, 3):
        for d in (1, 2, 3):
            for extra in ((0, 0), (1, 0), (1, 1)):
                for m in ((4, 4), (5, 3), (6, 6)):
                    gens = [("t", Fraction(1, 2), d, extra)]
                    assert (dim_power_sum_in(levels, i, gens, m)
                            == _in_oracle(levels, i, gens, m))


def test_one_generator_box_terms_match_the_span_and_the_fallback():
    # single_power_terms is what one generator spans inside M(i) as box
    # terms, which the segment records store and dim_power_sum_in sums at
    # m: both equal the span's rank, in either direction, with and without
    # an extra shift, at every level index of two level sequences and at
    # degrees below, at and past the level deficits
    for levels in (((0, 0), (1, 1), (2, 2)), ((0, 0), (0, 1), (2, 1))):
        for i in range(1, len(levels) + 1):
            for direction in "st":
                for d in (1, 2, 3):
                    for extra in ((0, 0), (1, 0), (0, 2)):
                        gen = (direction, Fraction(1, 3), d, extra)
                        terms = single_power_terms(levels, i, gen)
                        assert len(terms) == (1 if i == len(levels) else 2)
                        for m in ((0, 0), (2, 1), (4, 4), (5, 3), (3, 6)):
                            got = box_sum(terms, m)
                            assert got == dim_power_sum_in(levels, i, [gen],
                                                           m)
                            assert got == _in_oracle(levels, i, [gen], m), \
                                (levels, i, gen, m)


def test_power_sum_in_top_quotient_closed_form():
    levels = ((0, 0), (1, 1))
    i = 2
    gens = [("t", Fraction(k), 2, (0, 0)) for k in (1, 2, 3)]
    assert (dim_power_sum_in(levels, i, gens, (5, 5))
            == _in_oracle(levels, i, gens, (5, 5)))


def test_power_sum_in_mid_level_multiple_generators():
    levels = ((0, 0), (1, 1))
    gens = [("s", Fraction(1), 2, (0, 0)), ("s", Fraction(2), 2, (0, 1))]
    assert (dim_power_sum_in(levels, 1, gens, (5, 5))
            == _in_oracle(levels, 1, gens, (5, 5)))


def test_power_sum_in_rejects_mixed_directions_and_repeats():
    levels = ((0, 0), (1, 1))
    with pytest.raises(MixedDirectionError):
        dim_power_sum_in(levels, 1, [("s", Fraction(1), 2, (0, 0)),
                                     ("t", Fraction(1), 2, (0, 0))], (4, 4))
    with pytest.raises(ValueError):
        dim_power_sum_in(levels, 1, [("s", Fraction(1), 2, (0, 0)),
                                     ("s", Fraction(1), 1, (0, 0))], (4, 4))


def test_power_sum_in_caches_knots_by_value_in_any_order():
    # an int knot and the equal Fraction, and the generators in any order,
    # are one cache entry: the key holds (numerator, denominator) pairs
    levels = ((0, 0), (1, 1), (2, 2))
    m = (7, 6)
    gens = [("t", Fraction(1, 3), 2, (0, 0)), ("t", Fraction(2), 3, (1, 0)),
            ("t", Fraction(5, 2), 2, (0, 0))]
    want = _in_oracle(levels, 1, gens, m)
    assert dim_power_sum_in(levels, 1, gens, m) == want
    before = _power_sum_in_cached.cache_info()
    as_int = [g[:1] + (2,) + g[2:] if g[1] == 2 else g for g in gens]
    variants = [list(p) for p in permutations(gens)]
    variants += [list(p) for p in permutations(as_int)]
    for variant in variants:
        assert dim_power_sum_in(levels, 1, variant, m) == want
    after = _power_sum_in_cached.cache_info()
    assert after.currsize == before.currsize
    assert after.hits - before.hits == len(variants)
    assert after.misses == before.misses


def test_a_generator_key_keeps_its_tuple_hash():
    # the cache key takes its hash once, as a mesh vertex does, and a copy
    # or an unpickled key takes it afresh; levels given as a list or as a
    # tuple are one cache entry
    import copy
    import pickle
    levels = ((0, 0), (1, 1), (2, 2))
    gens = [("t", Fraction(1, 3), 2, (0, 0)), ("t", Fraction(5, 2), 2, (0, 0))]
    key = _generator_key(gens)
    assert type(key) is _GeneratorKey and key == tuple(key)
    assert hash(key) == hash(tuple(key))
    for twin in (copy.copy(key), copy.deepcopy(key),
                 pickle.loads(pickle.dumps(key))):
        assert type(twin) is _GeneratorKey
        assert twin == key and hash(twin) == hash(key)
    want = dim_power_sum_in(levels, 1, key, (6, 6))
    before = _power_sum_in_cached.cache_info()
    assert dim_power_sum_in(list(levels), 1, gens, (6, 6)) == want
    after = _power_sum_in_cached.cache_info()
    assert (after.hits - before.hits, after.misses) == (1, before.misses)


def test_sliced_quotient_dim_matches_the_naive_span():
    # the exact fallback's sliced rank against span_quotient_dim on seeded
    # random generators: either direction, 1 to 4 knots, an extra shift of
    # its own per generator, ambient boxes reaching below 0, and low boxes
    # absent, below 0, inside or equal to the ambient box
    rng = random.Random(1729)
    knots = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3)})
    seen = set()
    for _ in range(1500):
        direction = rng.choice("st")
        count = rng.randint(1, 4)
        extras = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(count)]
        gens = [power_grid(direction, knot, rng.randint(1, 4), extra)
                for knot, extra in zip(rng.sample(knots, count), extras)]
        ambient = (rng.randint(-1, 7), rng.randint(-1, 7))
        kind = rng.choice(("none", "below 0", "inside", "ambient"))
        lbox = {"none": None,
                "below 0": (rng.randint(-2, 0), rng.randint(-2, 6)),
                "inside": (rng.randint(0, 6), rng.randint(0, 6)),
                "ambient": ambient}[kind]
        if kind == "below 0" and min(lbox) >= 0:
            lbox = (-1, lbox[1])
        assert sliced_quotient_dim(gens, ambient, lbox) \
            == span_quotient_dim(gens, ambient, lbox), (gens, ambient, lbox)
        seen |= {direction, count, kind}
        if min(ambient) < 0:
            seen.add("ambient below 0")
        if len(set(extras)) > 1:
            seen.add("extras differ")
    assert seen == {"s", "t", 1, 2, 3, 4, "none", "below 0", "inside",
                    "ambient", "ambient below 0", "extras differ"}


def fallback_calls(monkeypatch, degrees):
    """(generators, ambient box, low box, result, columns of each matrix
    ranked) of every call bounds(..., ordering="auto") makes to graded's
    exact fallback on the fixtures at degrees, from a cleared cache."""
    calls = []
    sliced, rank = oracle.sliced_quotient_dim, oracle.rank_sparse

    def spy_sliced(generators, ambient, lbox):
        calls.append([generators, ambient, lbox, None, []])
        calls[-1][3] = sliced(generators, ambient, lbox)
        return calls[-1][3]

    def spy_rank(rows):
        calls[-1][4].append(len({c for row in rows for c in row}))
        return rank(rows)

    monkeypatch.setattr(oracle, "sliced_quotient_dim", spy_sliced)
    monkeypatch.setattr(oracle, "rank_sparse", spy_rank)
    _power_sum_in_cached.cache_clear()
    for name in FIXTURES:
        triple = parse_mesh_file(fixture_path(name))
        for m in degrees:
            bounds(*triple, m, ordering="auto")
    monkeypatch.undo()
    return calls


def test_the_fallback_of_the_fixtures_at_high_degree_matches_the_naive_span(
        monkeypatch):
    calls = fallback_calls(monkeypatch, [(20, 20), (12, 17), (20, 3)])
    assert len(calls) > 50
    for generators, ambient, lbox, got, _ in calls:
        assert got == span_quotient_dim(generators, ambient, lbox), \
            (generators, ambient, lbox)


def test_the_fallback_ranks_no_matrix_wider_than_the_ambient_box(monkeypatch):
    # a structural guard in place of a timing: at (20, 20) every slice the
    # fallback ranks has at most max(ambient) + 1 columns, where the naive
    # span has (ambient[0] + 1) * (ambient[1] + 1)
    calls = fallback_calls(monkeypatch, [(20, 20)])
    assert calls and all(columns for *_, columns in calls)
    for _, ambient, _, _, columns in calls:
        assert max(columns) <= max(ambient) + 1, (ambient, columns)
