"""Maximal segments, orderings, contribution sets and the H0 machinery.

The numeric expectations come from the bundled fixtures, whose dimensions
are pinned independently by the constraint-rank oracle in test_bounds and
test_acceptance; here the focus is the segment calculus itself.
"""

import random
from fractions import Fraction as F
from itertools import permutations

import pytest
from tmeshdim import (AssumptionViolated, SegmentOrdering,
                      TooManyForExhaustive, all_levels, analyze_segments,
                      contribution_sets, dim_D_contribution, dim_M,
                      h0_ideal_oracle, h0_ideal_upper, order_segments)
from tmeshdim.meshfile import parse_mesh_file

from .helpers import fixture_path
from .helpers.randmesh import (random_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .test_segment_golden import mixed_r


def level_analysis(name, index):
    mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
    lv = all_levels(mesh, profile)[index - 1]
    return analyze_segments(lv, smoothness)


def test_island_boundary_chains_are_interior_segments():
    # segments along an island's rim never touch the domain boundary, so
    # they count as interior even though they bound the active region
    an = level_analysis("new_relations_b", 1)
    keys = sorted(s.key for s in an.interior)
    assert keys == [("h", F(1), F(1)), ("h", F(2), F(1)),
                    ("v", F(1), F(1)), ("v", F(2), F(1))]
    for s in an.interior:
        assert (s.lo, s.hi) == (F(1), F(2))
        assert s.r == 1
        assert s.e == ((0, 2) if s.axis == "h" else (2, 0))


def test_collinear_active_chains_merge_across_vertices():
    an = level_analysis("test1", 1)
    assert len(an.interior) == 9
    spans = {s.key: (s.lo, s.hi) for s in an.segments}
    # chains stop where the active edges stop, not at crossing vertices
    for s in an.interior:
        assert s.hi > s.lo


def test_endpoint_touch_counts_as_crossing():
    # level-two stubs end on full transversal lines; the closed-interval
    # test keeps those endpoint contacts in the crossing sets
    an = level_analysis("test2", 2)
    stub = next(s for s in an.interior if s.key == ("h", F(1), F(1)))
    assert (stub.lo, stub.hi) == (F(1), F(5))
    lines = sorted(rec.key[1] for rec in an.crossers[stub.key])
    assert lines == [F(1), F(2), F(3), F(4), F(5)]
    assert all(rec.r == 2 for rec in an.crossers[stub.key])
    assert all(not rec.interior for rec in an.crossers[stub.key])


def test_ordering_strategies():
    an = level_analysis("new_relations_b", 1)
    inp = order_segments(an, "input", (4, 4))
    assert inp.strategy == "input"
    assert inp.sequence == tuple(sorted(s.key for s in an.interior))
    assert order_segments(an, "auto", (4, 4)).strategy == "exhaustive"
    ranks = inp.ranks()
    assert sorted(ranks.values()) == [1, 2, 3, 4]

    big = level_analysis("test1", 1)
    with pytest.raises(TooManyForExhaustive):
        order_segments(big, "exhaustive", (3, 3))
    assert order_segments(big, "auto", (3, 3)).strategy == "greedy"


def test_contribution_sets_on_the_four_segment_island():
    an = level_analysis("new_relations_b", 1)
    seq = (("h", F(1), F(1)), ("v", F(1), F(1)), ("v", F(2), F(1)),
           ("h", F(2), F(1)))
    sets = contribution_sets(an, SegmentOrdering("input", seq), (4, 4))
    h1, v1, v2, h2 = seq[0], seq[1], seq[2], seq[3]

    # the lowest segment collects nothing, each later one its predecessors
    assert sets.gamma[h1] == ()
    assert {rec.key for rec in sets.gamma[h2]} == {v1, v2}
    # one qualified transversal pair feeds the top segment
    assert sets.theta[h2] == ((v1, v2),)
    assert sets.theta[h1] == sets.theta[v1] == sets.theta[v2] == ()
    # the second member of the pair gains the owner, the first does not
    # (the owner's line carries a deficit step)
    assert dict(sets.lam[v2]) == {h1: 1, h2: 1}
    assert dict(sets.lam[v1]) == {h1: 1}
    assert sets.weights == {h1: 0, v1: 2, v2: 4, h2: 4}


def test_weight_threshold_covers_the_whole_block():
    an = level_analysis("new_relations_b", 1)
    m = (4, 4)
    ordr = order_segments(an, "exhaustive", m)
    sets = contribution_sets(an, ordr, m)
    levels = an.level.profile.levels
    for rho in an.interior:
        block = dim_M(levels, 1, rho.e, m)
        covered = dim_D_contribution(rho, sets)
        if sets.weights[rho.key] >= m[0] - levels[1][0] + 1:
            assert covered == block
        else:
            assert covered <= block


def test_upper_bound_dominates_the_exact_h0_for_every_ordering():
    an = level_analysis("new_relations_b", 1)
    m = (4, 4)
    exact = h0_ideal_oracle(an, m)
    assert exact == 9
    keys = [s.key for s in an.interior]
    uppers = set()
    for perm in permutations(keys):
        val = h0_ideal_upper(
            contribution_sets(an, SegmentOrdering("input", perm), m))
        assert val >= exact
        uppers.add(val)
    # the exhaustive strategy picks the best of them
    best = h0_ideal_upper(
        contribution_sets(an, order_segments(an, "exhaustive", m), m))
    assert best == min(uppers) == 9


def test_exact_h0_values_on_the_fixtures():
    for name, m, index, want in [("test1", (3, 3), 1, 7),
                                 ("test2", (4, 4), 1, 9),
                                 ("test2", (4, 4), 2, 0),
                                 ("test3", (6, 6), 1, 16)]:
        an = level_analysis(name, index)
        assert h0_ideal_oracle(an, m) == want
        ordr = order_segments(an, "auto", m)
        assert h0_ideal_upper(contribution_sets(an, ordr, m)) == want


def test_stub_weights_count_every_transversal_line():
    an = level_analysis("test2", 2)
    m = (4, 4)
    sets = contribution_sets(an, order_segments(an, "auto", m), m)
    # five crossings at one unit of surplus each
    assert sorted(sets.weights.values()) == [5, 5, 5]


def test_h0_upper_requires_acyclic_levels():
    mesh, profile, smoothness = ring_region_mesh()
    lv = all_levels(mesh, profile)[0]
    an = analyze_segments(lv, smoothness)
    with pytest.raises(AssumptionViolated):
        h0_ideal_upper(contribution_sets(
            an, order_segments(an, "input", (3, 3)), (3, 3)))


def test_exhaustive_search_returns_the_lex_first_minimizer():
    # brute force through the public path: every order of the sorted keys,
    # in lexicographic order, scored by h0_ideal_upper; the search must
    # return the first order reaching the minimum
    degrees = [(a, b) for a in range(2, 7) for b in range(2, 7)]
    tied = 0
    for name in ("test1", "test2", "test3", "new_relations_a",
                 "new_relations_b", "counterexample", "nested"):
        mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
        for lv in all_levels(mesh, profile):
            an = analyze_segments(lv, smoothness)
            if not 2 <= len(an.interior) <= 6:
                continue
            keys = [s.key for s in an.interior]
            perms = list(permutations(keys))
            for m in degrees:
                vals = [h0_ideal_upper(contribution_sets(
                            an, SegmentOrdering("input", perm), m))
                        for perm in perms]
                best = min(vals)
                first = perms[vals.index(best)]
                got = order_segments(an, "exhaustive", m)
                assert got.sequence == first, (name, lv.index, m)
                assert h0_ideal_upper(contribution_sets(an, got, m)) == best
                tied += vals.count(best) > 1
    # ties are common, so the tie-break is exercised
    assert tied > 0


def test_sequences_with_int_coordinates_resolve_against_fraction_keys():
    an = level_analysis("new_relations_b", 1)
    ints = (("h", 1, 1), ("v", 1, 1), ("v", 2, 1), ("h", 2, 1))
    fracs = tuple((a, F(x), F(y)) for a, x, y in ints)
    a = contribution_sets(an, SegmentOrdering("input", ints), (4, 4))
    b = contribution_sets(an, SegmentOrdering("input", fracs), (4, 4))
    for field in ("gamma", "upsilon", "theta", "lam", "weights",
                  "generators"):
        assert getattr(a, field) == getattr(b, field)
    # the sets are keyed by the analysis's own keys, whatever the caller used
    assert all(isinstance(k[1], F) for k in a.weights)
    assert h0_ideal_upper(a) == h0_ideal_upper(b)
    with pytest.raises(KeyError):
        contribution_sets(an, SegmentOrdering("input", ints[:3]), (4, 4))


def reference_sets(an, sequence, m):
    """gamma, upsilon, theta and lam under sequence, from the rules written
    over segment keys: gamma maps crossers to r, upsilon and theta are sets
    of key pairs, lam maps segments to r."""
    level = an.level
    levels, i = level.profile.levels, level.index
    rank = {key: q for q, key in enumerate(sequence)}
    seg = an.by_key
    cross = {k: [c.key for c in an.crossers[k] if c.key in rank] for k in rank}
    gamma = {k: {c.key: c.r for c in an.crossers[k]
                 if rank.get(c.key, -1) < rank[k]} for k in rank}
    lam = {k: dict(g) for k, g in gamma.items()}
    upsilon = {k: set() for k in rank}
    theta = {k: set() for k in rank}
    if i > level.profile.top:
        return gamma, upsilon, theta, lam
    for k in rank:
        ax = 0 if k[0] == "h" else 1
        surplus = m[ax] - levels[i][ax]
        upsilon[k] = {(k1, j) for k1 in rank
                      if k1 != k and k1[0] == k[0] and rank[k1] < rank[k]
                      and seg[k].r >= seg[k1].r
                      for j in cross[k1] if j in cross[k]}
        for a in cross[k]:
            js = {j for k1, j in upsilon[k] if rank[k1] < rank[a]}
            if sum(max(surplus - seg[j].r, 0) for j in js) <= surplus:
                continue
            for b in cross[k]:
                if rank[b] > rank[a] and seg[b].r >= seg[a].r:
                    theta[k].add((a, b))
                    lam[b][k] = seg[k].r
                    if seg[k].dp == (0, 0):
                        lam[a][k] = seg[k].r
    return gamma, upsilon, theta, lam


def test_search_and_rules_on_random_mixed_r_levels():
    # seeded random meshes with a seeded random r per line, so the rules'
    # r[k] >= r[k1] (upsilon) and r[b] >= r[a] (theta) comparisons matter;
    # every order's sets must match the key-level rules above, and the
    # search must return the lex-first order minimizing h0_ideal_upper.
    # The split meshes hold levels of 2 to 6 segments below the top level
    # (a step on every line) and above it (no upsilon or theta); the grid
    # region mesh holds a level where theta pairs segments of unequal r
    draws = [random_split_mesh(random.Random(seed), max_faces=30)[:2] + (seed,)
             for seed in (1, 7, 12, 15, 35)]
    draws.append(random_region_mesh(random.Random(20))[:2] + (20,))
    seen = {"below top": 0, "above top": 0, "upsilon": 0, "theta": 0}
    for mesh, profile, seed in draws:
        smoothness = mixed_r(mesh, seed)
        for lv in all_levels(mesh, profile):
            an = analyze_segments(lv, smoothness)
            if lv.h != 0 or not 2 <= len(an.interior) <= 6:
                continue
            seen["below top" if lv.index <= profile.top else "above top"] += 1
            keys = [s.key for s in an.interior]
            perms = list(permutations(keys))
            for m in ((3, 3), (4, 5), (6, 6)):
                vals = []
                for perm in perms:
                    ordr = SegmentOrdering("input", perm)
                    sets = contribution_sets(an, ordr, m)
                    gamma, upsilon, theta, lam = reference_sets(an, perm, m)
                    for k in keys:
                        assert {c.key: c.r for c in sets.gamma[k]} == gamma[k]
                        assert set(sets.upsilon[k]) == upsilon[k]
                        assert set(sets.theta[k]) == theta[k]
                        assert dict(sets.lam[k]) == lam[k]
                    seen["upsilon"] += any(upsilon.values())
                    seen["theta"] += any(theta.values())
                    vals.append(h0_ideal_upper(sets))
                got = order_segments(an, "exhaustive", m)
                assert got.sequence == perms[vals.index(min(vals))], \
                    (seed, lv.index, m)
    assert min(seen.values()) > 0, seen
