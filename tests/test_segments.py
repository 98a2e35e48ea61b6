"""Maximal segments, orderings, contribution sets and the H0 machinery.

The numeric expectations come from the bundled fixtures, whose dimensions
are pinned independently by the constraint-rank oracle in test_bounds and
test_acceptance; here the focus is the segment calculus itself.
"""

import dataclasses
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
                      contribution_sets, dim_M, dim_power_sum_in,
                      h0_ideal_oracle, h0_ideal_upper, order_segments)
from tmeshdim.meshfile import parse_mesh_dict, parse_mesh_file
from tmeshdim.segments import (EXHAUSTIVE_LIMIT, _before, _block,
                                _CoverThresholds, _covers, _floors,
                                _order_keys, _reaches, _Terms, _theta_at,
                                _upsilon_js, _walk)

from .helpers import fixture_path, make
from .helpers.randmesh import (random_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .helpers.rules import keyed_terms, reference_sets
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
    seg = an.by_key
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
    whole order at m as contribution_sets takes it (_order_keys, which
    shares no table with the search), the first strict minimum of the
    terms' sum kept."""
    best = best_perm = None
    for perm in permutations(range(len(an.interior))):
        keys = _order_keys(an, _before(perm), m)
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
            theta_at = _theta_at(an, m)
            reached = [set() for _ in range(n)]
            for perm in permutations(range(n)):
                keys = _order_keys(an, _before(perm), m)
                for k, key in enumerate(keys):
                    reached[k].add(key)
            for seed in range(6):
                terms = [RandomTerms(seed, k) for k in range(n)]
                least = [min(map(t.__getitem__, keys))
                         for t, keys in zip(terms, reached)]
                want = enumerated_best(an, m, terms)
                assert _walk(rules, theta_at, terms, [0] * n)[0] == want
                assert _walk(rules, theta_at, terms, least)[0] == want


class FloorCheck:
    """One segment's terms, each read checked against the segment's
    floor."""

    def __init__(self, terms, floor):
        self.terms, self.floor = terms, floor

    def __getitem__(self, key):
        term = self.terms[key]
        assert term >= self.floor, (key, term, self.floor)
        return term


def test_every_term_the_search_reads_is_at_least_its_floor():
    # the walk drops a branch on the floors of the segments not yet placed,
    # so each floor must bound every term of its segment that the walk
    # reads, theta's bits included, and its term at every rule key before
    # theta; with sound floors the walk returns the order that it returns
    # with no floor at all. Fixture levels, seeded mixed-r split levels,
    # levels where theta gives its first segment the owner's bit, and the
    # level of a mixed level path, from low degrees to those where graded
    # takes its exact rank
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
    runs = [an for an in runs
            if an.level.h == 0 and 2 <= len(an.interior) <= EXHAUSTIVE_LIMIT]
    pruned = 0
    for an in runs:
        rules = an.index.search_tables
        n = len(rules)
        for m in ((3, 3), (4, 5), (6, 6), (20, 20), (12, 17), (20, 3)):
            theta_at = _theta_at(an, m)
            terms = [_Terms(an, k, m) for k in range(n)]
            floor = _floors(rules, terms)
            checked = [FloorCheck(t, f) for t, f in zip(terms, floor)]
            # every rule key before theta, whether the walk reads it or not
            for x, row in enumerate(rules):
                for done in range(1 << n):
                    if not done >> x & 1:
                        checked[x][row[done]]
            got = _walk(rules, theta_at, checked, floor)[0]
            assert got == _walk(rules, theta_at, terms, [0] * n)[0] \
                == order_segments(an, "exhaustive", m).order, \
                (an.level.index, n, m)
            pruned += any(floor)
    assert sorted(len(an.interior) for an in runs) \
        == [2, 2] + [3] * 5 + [4] * 5 + [5] * 3 + [6] * 4 + [7] * 4 + [8] * 3
    # searches with some floor above 0, where the floors prune
    assert pruned == 28


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


def reference_term(an, k, key, m):
    """Segment k's weight and term at rule key and m as the report worked
    them out before the search handed its terms over: the block less what
    the weight (above the cap, all of it) or the raw generators cover."""
    levels, i = an.level.profile.levels, an.level.index
    rho = an.interior[k]
    size, cap, sub = _block(levels, i, rho, m)
    recs, gens = an.lam_records[k, key][:2]
    ax = 0 if rho.axis == "h" else 1
    weight = sum(max(m[ax] - levels[min(i, len(levels) - 1)][ax] - r, 0)
                 for _, r in recs)
    if weight > cap:
        covered = size
    elif not gens:
        covered = 0
    else:
        covered = dim_power_sum_in(levels, i, list(gens), sub)
    return weight, max(size - covered, 0)


def test_the_search_hands_over_what_a_fresh_evaluation_gives():
    # the exhaustive search hands the rule key it fixed for each segment and
    # its terms to contribution_sets. On every searched level of the sweep,
    # at m in 2..8 and at three degrees where graded takes its exact rank,
    # the keys are _order_keys' at the order found, theta's bits included,
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
            keys = _order_keys(an, before, m)
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
    # the records and theta's per-owner tables are keyed by rule keys and
    # masks of the level's own segments, so a sweep to 40 adds none to a
    # sweep to 20. The search runs on the whole 2..20 square and at three
    # corners further out
    def sweep(an, ms):
        for m in ms:
            for strategy in ("greedy", "input"):
                contribution_sets(an, order_segments(an, strategy, m), m)
            if m in searched and "exhaustive" in sweep_strategies(an):
                order_segments(an, "exhaustive", m)
        tables = vars(an).get("theta_tables", {})
        return (len(an.lam_records), len(an.cover_thresholds),
                sum(len(least) for least, _ in tables.values()))

    def reach(top):
        return set(product(range(2, top + 1), repeat=2))

    # past 20, every value of each coordinate once with a few of the other
    further = {m for a in range(21, 41) for b in (2, 5, 20, 40)
               for m in ((a, b), (b, a))}
    searched = reach(20) | {(40, 40), (40, 2), (2, 40)}
    filled = tabled = 0
    for label, lv, smoothness in sweep_levels():
        an = analyze_segments(lv, smoothness)
        to20 = sweep(an, sorted(reach(20)))
        assert sweep(an, sorted(further)) == to20, label
        filled += to20[1] > 0
        tabled += to20[2] > 0
    assert (filled, tabled) == (14, 10)


def test_cover_thresholds_give_theta_covering_test():
    # theta's test read from a mask's threshold agrees with the test summed
    # afresh at every surplus: on the upsilon j's of an owner at every mask
    # that the search (up to EXHAUSTIVE_LIMIT segments) or the greedy order
    # of the fixture and mixed-r levels tests, and on every mask of up to
    # three j's with r in 0..5
    def agree(ix, js):
        thresholds = _CoverThresholds(ix)
        for s in range(-3, 41):
            assert _reaches(thresholds[js], s) == _covers(ix, js, s), \
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
