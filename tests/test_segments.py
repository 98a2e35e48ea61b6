"""Maximal segments, orderings, contribution sets and the H0 machinery.

The numeric expectations come from the bundled fixtures, whose dimensions
are pinned independently by the constraint-rank oracle in test_bounds and
test_acceptance; here the focus is the segment calculus itself.
"""

import dataclasses
import gc
import math
import random
import sys
import weakref
from fractions import Fraction as F
from itertools import chain, permutations, product
from operator import getitem
from types import SimpleNamespace

import pytest
from tmeshdim import (AssumptionViolated, SegmentOrdering,
                      TooManyForExhaustive, all_levels, analyze_segments,
                      bounds, contribution_sets, dim_M, h0_ideal_oracle,
                      h0_ideal_upper, order_segments, segments)
from tmeshdim.mesh import Edge, TMesh
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file
from tmeshdim.segments import (EXHAUSTIVE_LIMIT, SegmentIndex, _before,
                                _CoverThresholds, _floors, _least_cover,
                                _live_theta, _plan, _reaches, _Terms,
                                _upsilon_js, _walk, _with_theta)

from .helpers import fixture_path, fraction_compares, make
from .helpers.randmesh import (random_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .helpers.rules import (covers, crossings, keyed_terms, reference_sets,
                            reference_term, scanned_crossers,
                            scanned_least_cover)
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
    crossed = crossings(an)[stub.key]
    assert sorted(key[1] for key, _, _, _ in crossed) \
        == [F(1), F(2), F(3), F(4), F(5)]
    assert all(r == 2 and not interior for _, _, r, interior in crossed)


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
    keyed = keyed_terms(sets)
    lam = {k: dict(recs) for k, (recs, _, _) in keyed.items()}

    # the lowest segment collects nothing, each later one its predecessors
    assert lam[h1] == {}
    assert lam[h2] == {v1: 1, v2: 1}
    # one qualified transversal pair (v1, v2) of the top segment h2 feeds
    # it: the second member gains the owner, which comes after it, and the
    # first does not (the owner's line carries a deficit step)
    assert lam[v2] == {h1: 1, h2: 1}
    assert lam[v1] == {h1: 1}
    assert {k: w for k, (_, w, _) in keyed.items()} \
        == {h1: 0, v1: 2, v2: 4, h2: 4}


def test_weight_threshold_covers_the_whole_block():
    an = level_analysis("new_relations_b", 1)
    m = (4, 4)
    ordr = order_segments(an, "exhaustive", m)
    sets = contribution_sets(an, ordr, m)
    levels = an.level.profile.levels
    for rho, (_, weight, _), term in zip(an.interior, sets.terms,
                                         sets.h0_terms):
        block = dim_M(levels, 1, rho.e, m)
        covered = block - term
        if weight >= m[0] - levels[1][0] + 1:
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
    assert sorted(weight for _, weight, _ in sets.terms) == [5, 5, 5]


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


def test_an_order_made_on_the_analysis_is_taken_as_checked(monkeypatch):
    # contribution_sets sorts and checks an order made by hand, or made on
    # another analysis; one that order_segments made on this analysis, as
    # its plan or terms say, is taken as checked. Counted on warm calls,
    # through the sorted that segments looks up
    an = level_analysis("new_relations_b", 1)
    other = analyze_segments(an.level, mixed_r(an.level.mesh, 99))
    m = (4, 4)
    made = [order_segments(an, strategy, m)
            for strategy in ("greedy", "exhaustive")]
    by_hand = [SegmentOrdering("input", ordr.order) for ordr in made]
    calls = [(an, ordr) for ordr in made + by_hand] \
        + [(other, ordr) for ordr in made]
    want = [contribution_sets(a, ordr, m).h0_terms for a, ordr in calls]
    sorts = 0

    def counting(*args, **kwargs):
        nonlocal sorts
        sorts += 1
        return sorted(*args, **kwargs)

    monkeypatch.setattr(segments, "sorted", counting, raising=False)
    got, counted = [], []
    for a, ordr in calls:
        before = sorts
        got.append(contribution_sets(a, ordr, m).h0_terms)
        counted.append(sorts - before)
    monkeypatch.undo()
    assert got == want
    assert counted == [0, 0, 1, 1, 1, 1]


def test_a_searched_level_works_out_each_block_once(monkeypatch):
    # contribution_sets reads a searched level's blocks and chosen terms
    # from the search: a cold bounds on the counterexample at (6, 4) works
    # out one block per interior segment of each level, where it worked out
    # two per segment of the searched level (11 in all)
    calls = 0
    plain = segments._block

    def counting(*args):
        nonlocal calls
        calls += 1
        return plain(*args)

    triple = parse_mesh_file(fixture_path("counterexample"))
    monkeypatch.setattr(segments, "_block", counting)
    rep = bounds(*triple, (6, 4))
    monkeypatch.undo()
    assert [(r.strategy, r.segment_count) for r in rep.rows] \
        == [("exhaustive", 5), ("exhaustive", 1)]
    assert calls == 5 + 1


def assert_rules(sets, upsilon, lam):
    """Each segment's lam records in sets are the reference's lam, and its
    generator lines are the lines of those records and of upsilon's j's."""
    for key, (recs, _, gens) in keyed_terms(sets).items():
        assert dict(recs) == lam[key], key
        assert {g[1] for g in gens} \
            == {k[1] for k in lam[key]} | {j[1] for _, j in upsilon[key]}, key


def test_search_and_rules_on_random_mixed_r_levels():
    # seeded random meshes with a seeded random r per line, so the rules'
    # r[k] >= r[k1] (upsilon) and r[b] >= r[a] (theta) comparisons matter;
    # every order's sets must match the key-level reference rules, and the
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
                    _, upsilon, theta, lam = reference_sets(
                        an, [keys[k] for k in perm], m)
                    assert_rules(sets, upsilon, lam)
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
    seg = {s.key: s for s in an.segments}
    gained = 0
    for m in ((4, 2), (3, 3)):
        for perm in permutations(range(len(keys))):
            sets = contribution_sets(an, SegmentOrdering("input", perm), m)
            _, upsilon, theta, lam = reference_sets(
                an, [keys[k] for k in perm], m)
            assert_rules(sets, upsilon, lam)
            # orders where some a gains its owner k through that rule
            gained += any(seg[k].dp == (0, 0) for k in keys if theta[k])
    assert gained == 1008  # of the 1440 (order, m) pairs


def enumerated_best(an, m, terms):
    """The exhaustive search as a plain enumeration: every order of the
    segment numbers in lex order, each segment's rule key taken from the
    whole order at m as contribution_sets takes it (_plan, then
    _with_theta, which share no table with the search), the first strict
    minimum of the terms' sum kept."""
    best = best_perm = None
    for perm in permutations(range(len(an.interior))):
        keys = _with_theta(an, _plan(an, perm), m)
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


def x_step_levels():
    """The levels with owners that give theta's first segment a its bit
    (k_in_a) of split meshes whose deficits step in x alone, so vertical
    owners carry no step."""
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
    return levels


def test_walk_fixes_each_rule_key_when_the_segment_is_placed():
    # random terms per rule key make the least order depend on each key the
    # walk reads at placement, which must be the key the whole order gives.
    # Random terms do not shrink as a key gains bits, so the floor passed
    # with them is each segment's least term over the keys of every order
    # (the keys the enumeration reads), or 0
    levels = x_step_levels()
    assert sorted(len(an.interior) for an in levels) == [3, 3, 5, 6, 7]
    for an in levels:
        rules = an.index.search_tables
        n = len(rules)
        for m in ((3, 3), (4, 5), (6, 6)):
            reached = [set() for _ in range(n)]
            for perm in permutations(range(n)):
                keys = _with_theta(an, _plan(an, perm), m)
                for k, key in enumerate(keys):
                    reached[k].add(key)
            for seed in range(6):
                terms = [RandomTerms(seed, k) for k in range(n)]
                least = [min(map(t.__getitem__, keys))
                         for t, keys in zip(terms, reached)]
                want = enumerated_best(an, m, terms)
                assert _walk(an, m, terms, [0] * n)[0] == want
                assert _walk(an, m, terms, least)[0] == want


class FloorCheck:
    """One segment's terms, each read checked against the segment's
    floor."""

    def __init__(self, terms, floor):
        self.terms, self.floor = terms, floor

    def __getitem__(self, key):
        term = self.terms[key]
        assert term >= self.floor, (key, term, self.floor)
        return term


def searched_levels():
    """The levels of 2 to EXHAUSTIVE_LIMIT segments and no relative cycle
    of the fixtures, of seeded mixed-r split and region meshes, of
    x_step_levels and of a mixed level path."""
    runs = []
    for name in FIXTURES:
        mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
        runs += [analyze_segments(lv, smoothness)
                 for lv in all_levels(mesh, profile)]
    draws = [random_split_mesh(random.Random(seed), max_faces=30)[:2]
             + (seed,) for seed in (1, 7, 9, 12, 15, 29, 33, 35, 40)]
    draws.append(random_region_mesh(random.Random(20))[:2] + (20,))
    for mesh, profile, seed in draws:
        smoothness = mixed_r(mesh, seed)
        runs += [analyze_segments(lv, smoothness)
                 for lv in all_levels(mesh, profile)]
    runs += x_step_levels()
    mesh, profile, smoothness = parse_mesh_dict(unequal_deficits_doc())
    runs.append(analyze_segments(all_levels(mesh, profile)[0], smoothness))
    return [an for an in runs
            if an.level.h == 0 and 2 <= len(an.interior) <= EXHAUSTIVE_LIMIT]


def test_every_term_the_search_reads_is_at_least_its_floor():
    # the walk drops a branch on the floors of the segments not yet placed,
    # so each floor must bound every term of its segment that the walk
    # reads, theta's bits included, and its term at every rule key before
    # theta; with sound floors the walk returns the order that it returns
    # with no floor at all. From low degrees to those where graded takes
    # its exact rank
    runs = searched_levels()
    pruned = 0
    for an in runs:
        rules = an.index.search_tables
        n = len(rules)
        for m in ((3, 3), (4, 5), (6, 6), (20, 20), (12, 17), (20, 3)):
            terms = [_Terms(an, k, m) for k in range(n)]
            floor = _floors(rules, terms)
            checked = [FloorCheck(t, f) for t, f in zip(terms, floor)]
            # every rule key before theta, whether the walk reads it or not
            for x, row in enumerate(rules):
                for done in range(1 << n):
                    if not done >> x & 1:
                        checked[x][row[done]]
            got = _walk(an, m, checked, floor)[0]
            assert got == _walk(an, m, terms, [0] * n)[0] \
                == order_segments(an, "exhaustive", m).order, \
                (an.level.index, n, m)
            pruned += any(floor)
    assert sorted(len(an.interior) for an in runs) \
        == [2, 2] + [3] * 5 + [4] * 5 + [5] * 3 + [6] * 4 + [7] * 4 + [8] * 3
    # searches with some floor above 0, where the floors prune
    assert pruned == 28


class ReadLog:
    """One segment's terms, each read logged as (segment, rule key)."""

    def __init__(self, terms, x, log):
        self.terms, self.x, self.log = terms, x, log

    def __getitem__(self, key):
        self.log.append((self.x, key))
        return self.terms[key]


def test_the_walk_stops_at_an_order_whose_total_is_the_floor_sum():
    # no order totals less than the sum of the floors, so the walk ends at
    # the first order that reaches it, which is the lex-first optimum: its
    # last read is the key of that order's last segment, and it returns
    # the order and keys that a zero floor, and a floor whose sum is never
    # reached, give
    def walk(an, m, terms, floor):
        log = []
        found = _walk(an, m, [ReadLog(t, x, log) for x, t in
                              enumerate(terms)], floor)
        return found, log

    stopped = reads = 0
    for an in searched_levels():
        rules = an.index.search_tables
        n = len(rules)
        for m in ((3, 3), (4, 5), (6, 6), (20, 20), (12, 17), (20, 3)):
            terms = [_Terms(an, k, m) for k in range(n)]
            floor = _floors(rules, terms)
            (order, keys), log = walk(an, m, terms, floor)
            if sum(map(getitem, terms, keys)) != sum(floor):
                continue
            assert log[-1] == (order[-1], keys[order[-1]])
            assert order == _walk(an, m, terms, [0] * n)[0], \
                (an.level.index, n, m)
            lowered = [f - (x == 0) for x, f in enumerate(floor)]
            assert _walk(an, m, terms, lowered) == (order, keys)
            stopped += 1
            reads += len(log)
    # searches that end at the floor sum, and the terms they read
    assert (stopped, reads) == (101, 495)


def test_no_search_mask_has_a_lower_theta_threshold_than_the_full_one():
    # upsilon's j's only gain bits as the search mask grows and a covering
    # threshold only falls as they do, so at no mask is an owner's
    # threshold below the full mask's (None counting as infinite). Each
    # walk_theta row holds the owner's threshold at every mask, never for
    # None, and _live_theta, which reads the full mask's alone, keeps
    # exactly the entries of the candidates whose owner passes the surplus
    # test at some mask, filed under their a and b's
    def at(t):
        return math.inf if t is None else t

    kept = dropped = varied = 0
    for an in searched_levels():
        ix, least = an.index, an.cover_thresholds
        if not ix.theta:
            continue
        as_a, as_b, never = an.walk_theta
        need = an.level.profile.levels[an.level.index]
        rows = {}
        for k in {cand[0] for cand in ix.theta}:
            shift = len(ix.crossers[k])
            rows[k] = [least[key >> shift] for key in ix.search_tables[k]]
            assert all(at(t) >= at(rows[k][-1]) for t in rows[k]), k
            assert all(t is None or t < never for t in rows[k]), k
            varied += len(set(rows[k])) > 1

        def owner(x, k_in_x):
            # the bit of owner k among x's crossers names k
            return ix.crossers[x][k_in_x.bit_length() - 1][0]

        # one row per owner, shared by its entries
        shared = {}
        for x, entries in chain(enumerate(as_a), enumerate(as_b)):
            for entry in entries:
                k = owner(x, entry[1])
                assert shared.setdefault(k, entry[2]) is entry[2]
        assert {k: [never if t is None else t for t in rows[k]]
                for k in shared} == shared
        for m in ((1, 1), (2, 2), (3, 3), (4, 5), (6, 6), (20, 3)):
            want = [cand for cand in ix.theta
                    if any(_reaches(t, m[ix.axis[cand[0]]]
                                    - need[ix.axis[cand[0]]])
                           for t in rows[cand[0]])]
            live_a, live_b, _ = _live_theta(an, m)
            got_a = sorted((a, b_bits, k_in_a, owner(a, k_in_a))
                           for a, entries in enumerate(live_a)
                           for b_bits, k_in_a, _ in entries)
            got_b = sorted((b, a, k_in_b, owner(b, k_in_b))
                           for b, entries in enumerate(live_b)
                           for a, k_in_b, _ in entries)
            assert got_a == sorted(
                (a, sum(1 << b for b, _ in seconds), k_in_a, k)
                for k, a, _, k_in_a, seconds in want if k_in_a), \
                (an.level.index, m)
            assert got_b == sorted(
                (b, a, k_in_b, k) for k, a, _, _, seconds in want
                for b, k_in_b in seconds), (an.level.index, m)
            kept += len(want)
            dropped += len(ix.theta) - len(want)
    # candidates kept and dropped at some m, and owners whose thresholds
    # differ between masks
    assert (kept, dropped, varied) == (220, 326, 36)


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
    # must equal the same case on an analysis built for it alone, also at
    # the high degrees where the search's terms take graded's exact rank
    levels = list(sweep_levels())
    assert len(levels) == 28
    degrees = list(product(range(2, 9), repeat=2)) \
        + [(20, 20), (12, 17), (20, 3), (2, 20)]
    for label, lv, smoothness in levels:
        warm = analyze_segments(lv, smoothness)
        for m in degrees:
            for strategy in sweep_strategies(warm):
                fresh = analyze_segments(lv, smoothness)
                assert sweep_case(warm, strategy, m) \
                    == sweep_case(fresh, strategy, m), (label, strategy, m)


def test_the_search_hands_over_what_a_fresh_evaluation_gives():
    # the exhaustive search hands the rule key it fixed for each segment and
    # its terms to contribution_sets. On every searched level of the sweep,
    # at m in 2..8 and at three degrees where graded takes its exact rank,
    # the keys are _with_theta's at the order found, theta's bits included,
    # each weight and carried term is the one worked out afresh, and
    # h0_ideal_upper is the walk's best total. The order read at another m
    # or on the analysis of another smoothness gives what it gives as an
    # order made by hand
    degrees = list(product(range(2, 9), repeat=2)) \
        + [(20, 20), (12, 17), (20, 3)]
    searched = with_theta = moved = 0
    for label, lv, smoothness in sweep_levels():
        an = analyze_segments(lv, smoothness)
        n = len(an.interior)
        if not 2 <= n <= EXHAUSTIVE_LIMIT:
            continue
        rules = an.index.search_tables
        other_r = analyze_segments(lv, mixed_r(lv.mesh, 99))
        for m in degrees:
            ordr = order_segments(an, "exhaustive", m)
            before = _before(ordr.order)
            keys = _with_theta(an, _plan(an, ordr.order), m)
            assert ordr.keys == tuple(keys), (label, m)
            with_theta += keys != [row[b] for row, b in zip(rules, before)]
            sets = contribution_sets(an, ordr, m)
            want = [reference_term(an, k, key, m)
                    for k, key in enumerate(keys)]
            assert [(w, t) for (_, w, _), t in zip(sets.terms, sets.h0_terms)] \
                == want, (label, m)
            walked = sum(map(getitem, ordr.terms, ordr.keys))
            assert walked == sum(t for _, t in want)
            if lv.h == 0:
                assert h0_ideal_upper(sets) == walked
            # an order made by replace carries none of the search's record
            by_hand = dataclasses.replace(ordr, strategy="input")
            assert by_hand.keys is by_hand.terms is None
            other = (m[1], m[0] + 1)
            for got, at in ((sets, m),
                            (contribution_sets(an, ordr, other), other)):
                fresh = contribution_sets(an, by_hand, at)
                assert (got.terms, got.h0_terms) \
                    == (fresh.terms, fresh.h0_terms)
            got = contribution_sets(other_r, ordr, m)
            assert got.h0_terms \
                == contribution_sets(other_r, by_hand, m).h0_terms
            moved += got.h0_terms != sets.h0_terms
            searched += 1
    # (level, m) searches, those whose keys gained a bit from theta and
    # those whose terms differ on the other smoothness
    assert (searched, with_theta, moved) == (832, 22, 539)


def test_the_records_do_not_grow_with_the_degrees_asked():
    # the records are keyed by rule keys and masks of the level's own
    # segments, and the walk's theta entries are its theta candidates'
    # rows, made on the first search, so a sweep to 40 adds none to a
    # sweep to 20. The search runs on the whole 2..20 square and at three
    # corners further out
    def sweep(an, ms):
        for m in ms:
            for strategy in ("greedy", "input"):
                contribution_sets(an, order_segments(an, strategy, m), m)
            if m in searched and "exhaustive" in sweep_strategies(an):
                order_segments(an, "exhaustive", m)
        # a theta candidate files its (a, owner row) pair under each b
        as_b = an.__dict__.get("walk_theta", ((), ()))[1]
        return (len(an.lam_records), len(an.cover_thresholds),
                len({(a, id(row)) for entries in as_b
                     for a, _, row in entries}))

    def reach(top):
        return set(product(range(2, top + 1), repeat=2))

    # past 20, every value of each coordinate once with a few of the other
    further = {m for a in range(21, 41) for b in (2, 5, 20, 40)
               for m in ((a, b), (b, a))}
    searched = reach(20) | {(40, 40), (40, 2), (2, 40)}
    filled = walked = 0
    for label, lv, smoothness in sweep_levels():
        an = analyze_segments(lv, smoothness)
        to20 = sweep(an, sorted(reach(20)))
        assert sweep(an, sorted(further)) == to20, label
        assert to20[2] == (len(an.index.theta) if "exhaustive"
                           in sweep_strategies(an) else 0), label
        filled += to20[1] > 0
        walked += to20[2]
    assert (filled, walked) == (14, 103)


def test_cover_thresholds_give_theta_covering_test():
    # theta's test read from a mask's threshold agrees with the test summed
    # afresh at every surplus: on the upsilon j's of an owner at every mask
    # that the search (up to EXHAUSTIVE_LIMIT segments) or the greedy order
    # of the fixture and mixed-r levels tests, and on every mask of up to
    # three j's with r in 0..5 or up to 10^9; the surpluses next to the
    # threshold and to the j's r sum plus 1, where the bisection starts, are
    # tested too
    def agree(ix, js):
        least = _CoverThresholds(ix)[js]
        top = sum(r for j, r in enumerate(ix.r) if js >> j & 1) + 1
        near = {t + d for t in (least, top) if t is not None
                for d in (-1, 0, 1)}
        for s in near.union(range(-3, 41)):
            assert _reaches(least, s) == covers(
                [r for j, r in enumerate(ix.r) if js >> j & 1], s), \
                (ix.r, js, s)
        return least

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
        for rs in chain(product(range(6), repeat=n),
                        product((0, 3, 10 ** 6, 10 ** 9 - 1, 10 ** 9),
                                repeat=n)):
            ix = SimpleNamespace(r=list(rs))
            for js in range(1 << n):
                agree(ix, js)


def test_the_least_covering_value_matches_a_scan():
    # _least_cover bisects the least c at which a multiset of r's covers a
    # block. On every sequence of up to four r's from {0, 1, 3, 10^6, 10^9}
    # it equals a scan over the sorted r's, and holds there and not one
    # below; on r's in 0..5 it equals a scan over every c from 0
    values = (0, 1, 3, 10 ** 6, 10 ** 9)
    found = set()
    for n in range(5):
        for rs in product(values, repeat=n):
            least = _least_cover(rs)
            assert least == scanned_least_cover(rs), rs
            if least is not None:
                assert covers(rs, least) and not covers(rs, least - 1) \
                    or least == 0, rs
            found.add(least)
    for n in range(4):
        for rs in product(range(6), repeat=n):
            scan = next((c for c in range(sum(rs) + 2) if covers(rs, c)),
                        None)
            assert _least_cover(rs) == scan, rs
    assert None in found and 10 ** 9 + 1 in found and 1 in found


def test_every_term_read_is_the_formula_worked_out_afresh():
    # each term is compiled from records made once per analysis: a least
    # covering cap, and one generator's span as box terms. Every (k, rule
    # key) term that a search reads, and that contribution_sets reads under
    # every strategy, equals reference_term's, worked out from dim_M, the
    # weight, one generator box by box and several by graded's fallback: on
    # the fixture and mixed-r levels and on seeded split meshes, at every m
    # in 0..8 x 0..8, where caps fall below 0, and further out
    levels = [(label, lv, smoothness)
              for label, lv, smoothness in sweep_levels()]
    for seed in (3, 9, 29):
        mesh, profile, smoothness, _ = random_split_mesh(
            random.Random(seed), max_faces=30)
        levels += [(f"split {seed} L{lv.index}", lv, smoothness)
                   for lv in all_levels(mesh, profile)]
    degrees = list(product(range(9), repeat=2)) + [(20, 20), (40, 2),
                                                   (2, 40)]
    read = {"search": 0, "sets": 0, "cap below 0": 0, "covered": 0,
            "one generator": 0, "several": 0}
    for label, lv, smoothness in levels:
        an = analyze_segments(lv, smoothness)
        records = an.lam_records
        for m in degrees:
            seen = set()
            for strategy in sweep_strategies(an):
                ordr = order_segments(an, strategy, m)
                for k, terms in enumerate(ordr.terms or ()):
                    for key, term in terms.items():
                        assert term == reference_term(an, k, key, m)[1], \
                            (label, m, k, key)
                        seen.add((k, key))
                        read["search"] += 1
                sets = contribution_sets(an, ordr, m)
                keys = _with_theta(an, _plan(an, ordr.order), m)
                for k, key in enumerate(keys):
                    assert (sets.terms[k][1], sets.h0_terms[k]) \
                        == reference_term(an, k, key, m), (label, m, k)
                    seen.add((k, key))
                    read["sets"] += 1
            for k, key in seen:
                _, ax, need, _ = an.blocks[k]
                least, single = records[k, key][4:]
                if m[ax] < need:
                    read["cap below 0"] += 1
                elif _reaches(least, m[ax] - need):
                    read["covered"] += 1
                else:
                    read["one generator" if single else "several"] += 1
    assert min(read.values()) > 0, read


def test_crossers_are_read_off_shared_vertices(monkeypatch):
    # two edges of the mesh meet at most in a shared vertex, so SegmentIndex
    # reads each crossing off mesh.vertex_edges and compares no Fraction.
    # On this grid (a 20 x 20 unit grid whose faces outside the central
    # 10 x 10 block carry the deficit (1, 1)) a scan over every pair of
    # segments made 5,574 comparisons in analyze_segments, 3,462 of them
    # for the crossers; the 120 left are the sort that puts the segments
    # in key order
    from .test_mesh import _grid_document

    mesh, profile, smoothness = parse_mesh_dict(_grid_document(20, 10))
    lvls = all_levels(mesh, profile)
    calls, ans = fraction_compares(
        monkeypatch,
        lambda: [analyze_segments(lv, smoothness) for lv in lvls])
    assert calls <= 120
    calls, _ = fraction_compares(
        monkeypatch, lambda: [SegmentIndex(an) for an in ans])
    assert calls == 0
    ans += searched_levels()
    for mesh, profile, smoothness in large_grid_meshes():
        ans += [analyze_segments(lv, smoothness)
                for lv in all_levels(mesh, profile)]
    for an in ans:
        assert an.index.crossers == scanned_crossers(an)


def test_chains_of_a_hand_built_mesh_with_unsorted_edges():
    # the chains are joined and the crossings read at shared end vertices,
    # which build_tmesh gives as the mesh's own objects; a TMesh built by
    # hand from new Edge objects in reverse order, whose ends are plain
    # tuples, gives the same segments and crossers
    runs = [parse_mesh_file(fixture_path(name)) for name in FIXTURES]
    runs += [ring_region_mesh(), random_region_mesh(random.Random(20))[:3]]
    segments = 0
    for mesh, profile, smoothness in runs:
        edges = tuple(Edge(e.axis, e.line, e.lo, e.hi)
                      for e in reversed(mesh.edges))
        assert edges[0]._ends is None
        mixed = TMesh(mesh.faces, edges, mesh.vertices, mesh.edge_faces,
                      mesh.face_edges, mesh.vertex_edges)
        for lv, other in zip(all_levels(mesh, profile),
                             all_levels(mixed, profile)):
            want = analyze_segments(lv, smoothness).segments
            an = analyze_segments(other, smoothness)
            assert an.segments == want
            assert an.index.crossers == scanned_crossers(an)
            assert all(a.hi == b.lo for s in want
                       for a, b in zip(s.edges, s.edges[1:]))
            segments += len(want)
    assert segments > 100


def u_shaped_document():
    """A U-shaped domain: a 4 x 2 base split at x = 1/2, 1 and 3 above y = 1,
    with a column on [0, 1] and one on [3, 4] over y = 2. r is 1 but on the
    interior runs of y = 2: 0 on [0, 1] and 2 on [3, 4]."""
    half = "1/2"
    rects = [(0, 0, 4, 1), (0, 1, half, 2), (half, 1, 1, 2), (1, 1, 3, 2),
             (3, 1, 4, 2), (0, 2, half, 3), (half, 2, 1, 3), (0, 3, 1, 4),
             (3, 2, 4, 4)]
    return {"faces": [{"rect": [str(c) for c in r]} for r in rects],
            "smoothness": {"default": 1, "overrides": [
                {"orientation": "h", "line": "2", "span": ["0", "1"], "r": 0},
                {"orientation": "h", "line": "2", "span": ["3", "4"],
                 "r": 2}]}}


def test_a_u_shaped_domain():
    # y = 2 runs from one side of the U to the other: two interior runs of
    # distinct r with the boundary run [1, 3] between them, so its chain has
    # no one r, and the interior segment on x = 1/2 crosses it where its r
    # is 0. The bounds hold on the non-rectangular domain and certify
    mesh, profile, smoothness = parse_mesh_dict(u_shaped_document())
    (lv,) = all_levels(mesh, profile)   # no face has a deficit
    an = analyze_segments(lv, smoothness)
    assert an.index.crossers == scanned_crossers(an)
    (y2,) = [s for s in an.segments if s.key == ("h", 2, 0)]
    assert not y2.interior and y2.r is None
    k = an.index.of["v", F(1, 2), 1]
    assert [r for _, p, r in an.index.crossers[k]
            if an.segments[p] is y2] == [0]
    for m, exact in (((2, 2), 24), ((3, 3), 62), ((4, 3), 81)):
        rep = bounds(mesh, profile, smoothness, m, with_oracle=True)
        assert rep.lower_general <= rep.oracle <= rep.upper, m
        assert rep.certified and rep.exact == rep.oracle == exact, m


def large_grid_meshes():
    """The two shapes of the large-grid benchmark workload: 20 x 20 unit
    grids whose faces carry the deficit (1, 1) outside a zero-deficit
    half-plane (r = 2) or outside a central 7 x 9 island (r = 1), whose
    level 1 has 18 interior segments, past the exhaustive limit."""
    def doc(zero, r):
        return {"faces": [dict({"rect": [i, j, i + 1, j + 1]},
                               **({} if (i, j) in zero
                                  else {"deficit": [1, 1]}))
                          for j in range(20) for i in range(20)],
                "smoothness": {"default": r}}

    half = {(i, j) for i in range(10) for j in range(20)}
    island = {(i, j) for i in range(5, 12) for j in range(6, 15)}
    return [parse_mesh_dict(doc(half, 2)), parse_mesh_dict(doc(island, 1))]


def test_the_greedy_plan_gives_what_a_plan_built_on_the_call_gives():
    # the greedy ordering that order_segments makes carries its analysis's
    # greedy_plan; one built by hand carries none, so contribution_sets
    # builds its plan on the call. On every fixture and mixed-r level and
    # on both large-grid shapes, at every m in 0..6 x 0..6, the two give the
    # same sets, which match the key-level reference rules. Read on the
    # analysis of another smoothness, the ordering is planned afresh there.
    # A level of at most one segment has one order, the greedy one, and its
    # search carries the greedy plan too
    levels = list(sweep_levels())
    for q, (mesh, profile, smoothness) in enumerate(large_grid_meshes()):
        levels += [(f"grid {q} L{lv.index}", lv, smoothness)
                   for lv in all_levels(mesh, profile)]
    degrees = list(product(range(7), repeat=2))
    sizes, moved = [], 0
    for label, lv, smoothness in levels:
        an = analyze_segments(lv, smoothness)
        other = analyze_segments(lv, mixed_r(lv.mesh, 99))
        cached = order_segments(an, "greedy")
        assert cached.plan[0] is an and cached.plan[1] is an.greedy_plan
        if len(an.interior) <= 1:
            searched = order_segments(an, "exhaustive", (3, 3))
            assert searched.order == cached.order == tuple(
                range(len(an.interior)))
            assert searched.plan == cached.plan and searched.keys is None
        by_hand = SegmentOrdering("greedy", an.greedy_order)
        assert by_hand.plan is None and by_hand == cached
        sequence = [an.index.keys[k] for k in cached.order]
        for m in degrees:
            got = contribution_sets(an, cached, m)
            fresh = contribution_sets(an, by_hand, m)
            assert (got.terms, got.h0_terms, got.before) \
                == (fresh.terms, fresh.h0_terms, fresh.before), (label, m)
            _, upsilon, _, lam = reference_sets(an, sequence, m)
            assert_rules(got, upsilon, lam)
            there = contribution_sets(other, cached, m)
            assert there.h0_terms \
                == contribution_sets(other, by_hand, m).h0_terms, (label, m)
            moved += there.h0_terms != got.h0_terms
        sizes.append(len(an.interior))
    assert len(sizes) == 32 and 18 in sizes and sizes.count(0) + sizes.count(1)
    assert moved > 0


def test_a_greedy_sweep_makes_each_rule_key_before_theta_once(monkeypatch):
    # the greedy order's plan is kept on the analysis, so a 25-degree greedy
    # sweep makes each segment's rule key before theta once per analysis,
    # not once per m; theta's candidates are still tested at every m, one
    # _upsilon_js each (and one in each _rule_key)
    calls = {"_rule_key": 0, "_upsilon_js": 0}
    for name in calls:
        def counted(*args, plain=getattr(segments, name), name=name):
            calls[name] += 1
            return plain(*args)

        monkeypatch.setattr(segments, name, counted)
    degrees = list(product(range(2, 7), repeat=2))
    for triple, want in ((parse_mesh_file(fixture_path("test1")), 13),
                         (large_grid_meshes()[1], 18)):
        calls.update(dict.fromkeys(calls, 0))
        for m in degrees:
            bounds(*triple, m, ordering="greedy")
        ans = sys.modules["tmeshdim.bounds"]._prepared(*triple).analyses
        segs = sum(len(an.interior) for an in ans)
        cands = sum(len(an.index.theta) for an in ans)
        assert segs == want and cands > 0
        assert calls == {"_rule_key": segs,
                         "_upsilon_js": segs + len(degrees) * cands}


def test_changing_the_before_masks_handed_out_changes_no_report():
    # the masks a greedy ordering's plan keeps are the analysis's; the
    # ContributionSets handed out hold a list of their own, so changing
    # that list changes no later set or report
    triple = parse_mesh_file(fixture_path("test1"))
    want = [bounds(*triple, m, ordering=ordering)
            for m in ((3, 3), (4, 5)) for ordering in ("greedy", "auto")]
    for an in sys.modules["tmeshdim.bounds"]._prepared(*triple).analyses:
        for strategy in sweep_strategies(an):
            ordr = order_segments(an, strategy, (3, 3))
            sets = contribution_sets(an, ordr, (3, 3))
            before = list(sets.before)
            sets.before[:] = [0] * len(before) + [1]
            again = contribution_sets(an, ordr, (3, 3))
            assert again.before == before and again.before is not sets.before
    assert [bounds(*triple, m, ordering=ordering)
            for m in ((3, 3), (4, 5))
            for ordering in ("greedy", "auto")] == want
