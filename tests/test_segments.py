"""Maximal segments, orderings, contribution sets and the H0 machinery.

The numeric expectations come from the bundled fixtures, whose dimensions
are pinned independently by the constraint-rank oracle in test_bounds and
test_acceptance; here the focus is the segment calculus itself.
"""

import gc
import random
import weakref
from fractions import Fraction as F
from itertools import permutations, product
from operator import getitem
from types import SimpleNamespace

import pytest
from tmeshdim import (AssumptionViolated, SegmentOrdering,
                      TooManyForExhaustive, all_levels, analyze_segments,
                      contribution_sets, dim_D_contribution, dim_M,
                      h0_ideal_oracle, h0_ideal_upper, order_segments)
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file
from tmeshdim.segments import (EXHAUSTIVE_LIMIT, _before, _CoverThresholds,
                                _covers, _order_keys, _Terms, _theta_at,
                                _upsilon_js, _walk)

from .helpers import fixture_path, make
from .helpers.randmesh import (random_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .test_segment_golden import FIXTURES, MIXED_R, mixed_r
from .test_symmetry import unequal_deficits_doc


def level_analysis(name, index):
    mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
    lv = all_levels(mesh, profile)[index - 1]
    return analyze_segments(lv, smoothness)


def by_keys(an, keys):
    """The order of the segment numbers of keys, first placed first."""
    return SegmentOrdering("input", tuple(an.index.of[key] for key in keys))


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
    assert inp.order == (0, 1, 2, 3)
    assert order_segments(an, "auto", (4, 4)).strategy == "exhaustive"
    with pytest.raises(ValueError, match="unknown ordering strategy"):
        order_segments(an, "typo", (4, 4))

    big = level_analysis("test1", 1)
    with pytest.raises(TooManyForExhaustive):
        order_segments(big, "exhaustive", (3, 3))
    assert order_segments(big, "auto", (3, 3)).strategy == "greedy"


def test_contribution_sets_on_the_four_segment_island():
    an = level_analysis("new_relations_b", 1)
    seq = (("h", F(1), F(1)), ("v", F(1), F(1)), ("v", F(2), F(1)),
           ("h", F(2), F(1)))
    sets = contribution_sets(an, by_keys(an, seq), (4, 4))
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
    uppers = set()
    for perm in permutations(range(len(an.interior))):
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
            perms = list(permutations(range(len(an.interior))))
            for m in degrees:
                vals = [h0_ideal_upper(contribution_sets(
                            an, SegmentOrdering("input", perm), m))
                        for perm in perms]
                best = min(vals)
                first = perms[vals.index(best)]
                got = order_segments(an, "exhaustive", m)
                assert got.order == first, (name, lv.index, m)
                assert h0_ideal_upper(contribution_sets(an, got, m)) == best
                tied += vals.count(best) > 1
    # ties are common, so the tie-break is exercised
    assert tied > 0


def test_an_order_must_hold_each_segment_number_once():
    an = level_analysis("new_relations_b", 1)
    m = (4, 4)
    good = (0, 2, 3, 1)
    want = h0_ideal_upper(contribution_sets(
        an, SegmentOrdering("input", good), m))
    # a missing, a repeated, an out-of-range and a non-int entry, and the
    # segment keys themselves
    for bad in (good[:3], good + (0,), (0, 2, 2, 1), (0, 2, 4, 1),
                (0, 2, 3, -1), (0, 2, 3, 1.0), (0, 2, 3, "1"),
                tuple(an.index.keys)):
        with pytest.raises(ValueError, match="not an order"):
            contribution_sets(an, SegmentOrdering("input", bad), m)
    assert h0_ideal_upper(contribution_sets(
        an, SegmentOrdering("input", list(good)), m)) == want


def reference_sets(an, sequence, m):
    """gamma, upsilon, theta and lam under sequence, a sequence of segment
    keys, from the rules written over those keys: gamma maps crossers to r,
    upsilon and theta are sets of key pairs, lam maps segments to r."""
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
            keys = an.index.keys
            perms = list(permutations(range(len(keys))))
            for m in ((3, 3), (4, 5), (6, 6)):
                vals = []
                for perm in perms:
                    ordr = SegmentOrdering("input", perm)
                    sets = contribution_sets(an, ordr, m)
                    gamma, upsilon, theta, lam = reference_sets(
                        an, [keys[k] for k in perm], m)
                    for k in keys:
                        assert {c.key: c.r for c in sets.gamma[k]} == gamma[k]
                        assert set(sets.upsilon[k]) == upsilon[k]
                        assert set(sets.theta[k]) == theta[k]
                        assert dict(sets.lam[k]) == lam[k]
                    seen["upsilon"] += any(upsilon.values())
                    seen["theta"] += any(theta.values())
                    vals.append(h0_ideal_upper(sets))
                got = order_segments(an, "exhaustive", m)
                assert got.order == perms[vals.index(min(vals))], \
                    (seed, lv.index, m)
    assert min(seen.values()) > 0, seen


def test_rules_when_theta_gives_the_first_segment_its_owner():
    # theta's owner k joins lam[a] as well as lam[b] when k's line carries
    # no step (SegmentIndex.theta's k_in_a). Every step of the fixtures and
    # of the random split and region meshes is (1, 1), so only a mixed
    # level path has such owners: level 1 here steps in y alone
    mesh, profile, smoothness = parse_mesh_dict(unequal_deficits_doc())
    an = analyze_segments(all_levels(mesh, profile)[0], smoothness)
    assert any(cand[3] for cand in an.index.theta)
    keys = an.index.keys
    assert len(keys) == 6
    seg = an.by_key
    gained = 0
    for m in ((4, 2), (3, 3)):
        for perm in permutations(range(len(keys))):
            sets = contribution_sets(an, SegmentOrdering("input", perm), m)
            gamma, upsilon, theta, lam = reference_sets(
                an, [keys[k] for k in perm], m)
            for k in keys:
                assert {c.key: c.r for c in sets.gamma[k]} == gamma[k]
                assert set(sets.upsilon[k]) == upsilon[k]
                assert set(sets.theta[k]) == theta[k]
                assert dict(sets.lam[k]) == lam[k], (m, perm, k)
            # orders where some a gains its owner k through that rule
            gained += any(seg[k].dp == (0, 0) for k in keys if theta[k])
    assert gained == 1008  # of the 1440 (order, m) pairs


def enumerated_best(an, m, terms):
    """The exhaustive search as a plain enumeration: every order of the
    segment numbers in lex order, each segment's rule key taken from the
    whole order at m as contribution_sets takes it (_order_keys, which
    shares no table with the search), the first strict minimum of the
    terms' sum kept."""
    best = best_perm = None
    for perm in permutations(range(len(an.interior))):
        keys = _order_keys(an, _before(perm), m, [[] for _ in perm])
        val = sum(map(getitem, terms, keys))
        if best is None or val < best:
            best, best_perm = val, perm
    return best_perm


def enumerated_order(an, m):
    return enumerated_best(an, m,
                           [_Terms(an, k, m) for k in range(len(an.interior))])


def test_pruned_search_matches_the_enumeration_up_to_eight_segments():
    # every fixture level the search takes (test3's has 7 segments), the
    # 8-segment level 1 of Random(29) and seeded mixed-r split-mesh levels
    # of 7 and 8 segments, below the top level (with theta candidates) and
    # above it
    degrees = [(a, b) for a in range(2, 7) for b in range(2, 7)]
    runs = []
    for name in ("test1", "test2", "test3", "new_relations_a",
                 "new_relations_b", "counterexample", "nested"):
        mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
        runs += [(analyze_segments(lv, smoothness), degrees)
                 for lv in all_levels(mesh, profile)]
    mesh, profile, smoothness, _ = random_split_mesh(random.Random(29),
                                                     max_faces=30)
    runs.append((analyze_segments(all_levels(mesh, profile)[0], smoothness),
                 [(3, 3), (4, 5), (6, 6)]))
    for seed in (9, 12, 29, 33, 40):
        mesh, profile, _, _ = random_split_mesh(random.Random(seed),
                                                max_faces=30)
        smoothness = mixed_r(mesh, seed)
        ans = [analyze_segments(lv, smoothness)
               for lv in all_levels(mesh, profile)]
        runs += [(an, [(3, 3), (6, 6)]) for an in ans
                 if 7 <= len(an.interior)]
    sizes = []
    for an, ms in runs:
        if len(an.interior) > 8:
            continue
        sizes.append(len(an.interior))
        for m in ms:
            assert order_segments(an, "exhaustive", m).order \
                == enumerated_order(an, m), (an.level.index, sizes[-1], m)
    assert (sizes.count(7), sizes.count(8)) == (4, 4), sizes


class RandomTerms(dict):
    """Seeded random terms in 0..49 by rule key, so that the least order
    turns on every segment's key."""

    def __init__(self, seed, k):
        super().__init__()
        self.seed, self.k = seed, k

    def __missing__(self, key):
        rng = random.Random(hash((self.seed, self.k, key)))
        term = self[key] = rng.randrange(50)
        return term


def test_walk_fixes_each_rule_key_when_the_segment_is_placed():
    # split meshes whose deficits step in x alone, so vertical owners carry
    # no step and theta's first segment a gains its owner too; random terms
    # per rule key make the least order depend on each key the walk reads
    # at placement, which must be the key the whole order gives
    levels = []
    for seed in (3, 44, 60):
        rng = random.Random(seed)
        base = random_split_mesh(rng, max_faces=30)[0]
        rects = [(f.x0, f.y0, f.x1, f.y1) for f in base.faces]
        deficits = [rng.choice(((1, 0), (2, 0), (2, 1)))
                    if rng.random() < 0.4 else (0, 0) for _ in rects]
        deficits[0] = (0, 0)
        mesh, profile, _ = make(rects, deficits=deficits, r=1)
        smoothness = mixed_r(mesh, seed)
        for lv in all_levels(mesh, profile):
            an = analyze_segments(lv, smoothness)
            if any(k_in_a for _, _, _, k_in_a, _ in an.index.theta):
                levels.append(an)
    assert sorted(len(an.interior) for an in levels) == [3, 3, 5, 6, 7]
    for an in levels:
        rules = an.index.search_tables
        for m in ((3, 3), (4, 5), (6, 6)):
            theta_at = _theta_at(an, rules, m)
            for seed in range(6):
                terms = [RandomTerms(seed, k) for k in range(len(rules))]
                assert _walk(rules, theta_at, terms) \
                    == enumerated_best(an, m, terms)


def test_exhaustive_search_leaves_no_cyclic_garbage():
    # neither a search nor contribution_sets makes cycles, on a cold
    # analysis or on one whose records are filled; the records hold no
    # reference back to the analysis, so dropping it frees it at once
    for name, m in (("counterexample", (4, 4)), ("test3", (6, 6))):
        an = level_analysis(name, 1)
        gc.collect()
        gc.disable()
        try:
            order_segments(an, "exhaustive", m)
            assert gc.collect() == 0, name
            assert an.lam_records and an.cover_thresholds
            for m2 in ((3, 3), m, (5, 2)):
                order_segments(an, "exhaustive", m2)
                for strategy in ("greedy", "input"):
                    contribution_sets(an, order_segments(an, strategy), m2)
            assert gc.collect() == 0, name
            alive = weakref.ref(an)
            del an
            assert alive() is None, name
        finally:
            gc.enable()


def sweep_levels():
    """(label, level, smoothness) for every level of the fixtures and of
    their seeded mixed-r reruns."""
    for label, name, seed in ([(name, name, None) for name in FIXTURES]
                              + [(name + " mixed-r", name, seed)
                                 for seed, name in enumerate(MIXED_R)]):
        mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
        if seed is not None:
            smoothness = mixed_r(mesh, seed)
        for lv in all_levels(mesh, profile):
            yield f"{label} L{lv.index}", lv, smoothness


def sweep_strategies(an):
    return ("greedy", "input") + (
        ("exhaustive",) if len(an.interior) <= EXHAUSTIVE_LIMIT else ())


def sweep_case(an, strategy, m):
    sets = contribution_sets(an, order_segments(an, strategy, m), m)
    try:
        h0 = h0_ideal_upper(sets)
    except AssumptionViolated:
        h0 = None
    return sets.ordering.order, sets.terms, h0


def test_a_warm_analysis_gives_what_a_fresh_one_gives():
    # one analysis per level serves a whole degree sweep under every
    # strategy, its records filled by the earlier bi-degrees; each case
    # must equal the same case on an analysis built for it alone
    levels = list(sweep_levels())
    assert len(levels) == 28
    for label, lv, smoothness in levels:
        warm = analyze_segments(lv, smoothness)
        for m in product(range(2, 9), repeat=2):
            for strategy in sweep_strategies(warm):
                fresh = analyze_segments(lv, smoothness)
                assert sweep_case(warm, strategy, m) \
                    == sweep_case(fresh, strategy, m), (label, strategy, m)


def test_the_records_do_not_grow_with_the_degrees_asked():
    # the records are keyed by rule keys and masks of the level's own
    # segments, so a sweep to 40 adds none to a sweep to 20. The search's
    # terms cost graded ranks at high degree, so it sweeps 2..8 square and
    # then a few rows and columns further out
    def sweep(an, ms):
        for m in ms:
            for strategy in ("greedy", "input"):
                contribution_sets(an, order_segments(an, strategy, m), m)
            if m in searched and "exhaustive" in sweep_strategies(an):
                order_segments(an, "exhaustive", m)
        return len(an.lam_records), len(an.cover_thresholds)

    def reach(top):
        return set(product(range(2, top + 1), repeat=2))

    # past 20, every value of each coordinate once with a few of the other
    further = {m for a in range(21, 41) for b in (2, 5, 20, 40)
               for m in ((a, b), (b, a))}
    searched = reach(8) | {m for a in (20, 40)
                           for m in ((a, a), (a, 2), (2, a))}
    filled = 0
    for label, lv, smoothness in sweep_levels():
        an = analyze_segments(lv, smoothness)
        to20 = sweep(an, sorted(reach(20)))
        assert sweep(an, sorted(further)) == to20, label
        filled += to20[1] > 0
    assert filled == 14


def test_cover_thresholds_give_theta_covering_test():
    # theta's test read from a mask's threshold agrees with the test summed
    # afresh at every surplus: on the upsilon j's of an owner at every mask
    # that the search (up to EXHAUSTIVE_LIMIT segments) or the greedy order
    # of the fixture and mixed-r levels tests, and on every mask of up to
    # three j's with r in 0..5
    def agree(ix, js):
        thresholds = _CoverThresholds(ix)
        for s in range(-3, 41):
            assert thresholds.covers(js, s) == _covers(ix, js, s), \
                (ix.r, js, s)
        return thresholds[js]

    found = set()
    for _, lv, smoothness in sweep_levels():
        an = analyze_segments(lv, smoothness)
        ix, n = an.index, len(an.interior)
        if n <= EXHAUSTIVE_LIMIT:
            masks = [range(1 << n)] * n
        else:
            before = _before(an.greedy_order)
            masks = [{b} | {b & before[a] for a in ix.icross[k]}
                     for k, b in enumerate(before)]
        for k in {cand[0] for cand in ix.theta}:
            for b in masks[k]:
                found.add(agree(ix, _upsilon_js(ix, k, b)))
    assert found == {None, 1, 2, 3, 4, 5}
    for n in range(4):
        for rs in product(range(6), repeat=n):
            ix = SimpleNamespace(r=list(rs))
            for js in range(1 << n):
                agree(ix, js)
