"""End-to-end dimension reports: chi, bounds, certification."""

import copy
import itertools
import json
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from tmeshdim import (DecompositionMismatch, LeveledProfile, MalformedError,
                      SmoothnessProfile, TMesh, bounds, build_profile,
                      build_smoothness,
                      certify_stable, configuration1_holds,
                      contribution_sets, euler_characteristic, all_levels,
                      analyze_segments, check_assumptions, h0_ideal_oracle,
                      oracle_spline_dim, order_segments)
from tmeshdim.cli import main
from tmeshdim.mesh import ReadOnlyDict, check_bidegree
from tmeshdim.meshfile import (parse_mesh_dict, parse_mesh_file,
                               render_certify_text, render_machine)

from .helpers import fixture_path, grid, make, single_face
from .helpers.chi import reference_chi, reference_config1
from .helpers.randmesh import (island_region_mesh, random_region_mesh,
                               random_split_mesh, ring_region_mesh)
from .helpers.univariate import tensor_grid_dim
from .test_segment_golden import MIXED_R, mixed_r

CANONICAL = [("test1", (3, 3)), ("test2", (4, 4)), ("test3", (6, 6)),
             ("new_relations_a", (3, 3)), ("new_relations_b", (4, 4)),
             ("counterexample", (5, 5)), ("nested", (4, 4))]


def run(name, m, **kw):
    mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
    return bounds(mesh, profile, smoothness, m, **kw)


def test_single_face_report():
    rep = bounds(*single_face(), (3, 3))
    assert rep.chi == rep.chi_direct == 16
    assert rep.lower_general == rep.lower_special == rep.upper == 16
    assert rep.certified and rep.exact == 16
    assert rep.rows[-1].segment_count == 0


def test_uniform_grid_is_certified_at_the_tensor_dimension():
    mesh, profile, smoothness = grid(3, r=1)
    rep = bounds(mesh, profile, smoothness, (4, 3))
    assert rep.certified
    assert rep.exact == rep.chi == tensor_grid_dim(3, 1, (4, 3))


def test_chi_decomposition_identity_on_fixtures():
    for name, m in CANONICAL:
        rep = run(name, m)
        assert rep.chi == rep.chi_direct


def _tight_island():
    # deficit-(1,1) ring around one full cell, C^2 everywhere
    rects = [(i, j, i + 1, j + 1) for j in range(3) for i in range(3)]
    deficits = [(1, 1)] * 9
    deficits[4] = (0, 0)
    return make(rects, deficits=deficits, r=2)


def test_configuration_one_gates_the_special_lower_bound():
    mesh, profile, smoothness = _tight_island()
    low = bounds(mesh, profile, smoothness, (2, 2), with_oracle=True)
    assert not low.config1
    assert low.lower_special is None and not low.certified
    assert low.lower_general <= low.oracle <= low.upper
    # without the configuration, chi may overshoot the true dimension
    assert low.chi > low.oracle
    high = bounds(mesh, profile, smoothness, (3, 3), with_oracle=True)
    assert high.config1
    assert high.chi <= high.oracle


def test_case_b_note_when_smoothness_reaches_the_gap():
    mesh, profile, smoothness = island_region_mesh()  # deficits (1,1), r=1
    rep = bounds(mesh, profile, smoothness, (2, 2))
    assert 2 in rep.case_b_levels
    assert any("vanishes" in n for n in rep.notes)


def test_counterexample_bounds_are_strict():
    rep = run("counterexample", (5, 5), with_oracle=True)
    assert rep.chi == 80
    assert not rep.certified
    assert rep.oracle == 81
    assert rep.lower_general <= rep.chi <= rep.oracle <= rep.upper
    assert rep.exact == 81  # falls back to the oracle value
    assert rep.config1


def test_uncertified_report_lists_ideal_slack():
    rep = run("test3", (6, 6))
    assert not rep.certified
    assert any("slack" in n for n in rep.notes)
    assert rep.upper - rep.chi == sum(r.h0_ideal - r.h0_constant
                                      for r in rep.rows)


def test_relative_cycles_suppress_bounds():
    mesh, profile, smoothness = ring_region_mesh()
    rep = bounds(mesh, profile, smoothness, (3, 3))
    assert not rep.assumption_ok
    assert rep.violations == (1,)
    assert rep.lower_general is None and rep.upper is None
    assert not rep.certified and rep.exact is None
    assert rep.chi == rep.chi_direct  # chi itself is still well defined
    assert any("relative cycles" in n for n in rep.notes)


def test_certify_stable_api():
    mesh, profile, smoothness = parse_mesh_file(fixture_path("test1"))
    assert certify_stable(mesh, profile, smoothness, (3, 3)) == (True, 37)
    mesh3, profile3, smoothness3 = parse_mesh_file(fixture_path("test3"))
    assert certify_stable(mesh3, profile3, smoothness3, (6, 6)) == (False, None)


def test_certify_stable_stops_at_the_first_failed_check(monkeypatch):
    module = sys.modules["tmeshdim.bounds"]
    real = module.order_segments
    ordered = []

    def counted(an, *args):
        ordered.append(an.level.index)
        return real(an, *args)

    monkeypatch.setattr(module, "order_segments", counted)
    test1 = parse_mesh_file(fixture_path("test1"))
    cases = [
        (ring_region_mesh(), (3, 3), []),              # relative cycles
        (parse_mesh_file(fixture_path("test2")), (2, 2), []),  # config 1
        (test1, (2, 2), [1]),                          # level 1 has slack
        (test1, (3, 3), [1, 2]),                       # level 2 has slack
        (test1, (4, 4), [1, 2]),                       # certified
    ]
    for triple, m, levels in cases:
        rep = bounds(*triple, m, ordering="greedy")
        del ordered[:]
        assert certify_stable(*triple, m, ordering="greedy") == (
            rep.certified, rep.exact)
        assert ordered == levels, m
    assert certify_stable(*test1, (4, 4)) == (True, 121)


def test_an_unknown_ordering_strategy_is_refused_where_the_call_enters():
    # no level of the ring mesh reaches the ordering (it has relative
    # cycles), and counterexample fails configuration 1 at (2, 2) before
    # any level does, so only a check at entry sees the name
    ring = ring_region_mesh()
    counterexample = parse_mesh_file(fixture_path("counterexample"))
    assert not bounds(*ring, (3, 3)).assumption_ok
    assert certify_stable(*counterexample, (2, 2)) == (False, None)
    with pytest.raises(ValueError, match="unknown ordering strategy 'typo'"):
        bounds(*ring, (3, 3), ordering="typo")
    with pytest.raises(ValueError, match="unknown ordering strategy 'typo'"):
        certify_stable(*counterexample, (2, 2), ordering="typo")


def test_a_non_integral_bi_degree_is_refused_where_it_enters():
    # int() would truncate (3.9, 3) to (3, 3), and the segment layer would
    # sum fractional terms at (4.5, 4); unchecked, chi read 51.5 at (3.5, 3)
    # and raised DecompositionMismatch from float rounding at (3.9, 3), and
    # configuration 1 held there; unchecked, the two oracles raised
    # TypeError even at (3.0, 3); integral values of any type keep their
    # reports. An infinite entry raised OverflowError and None TypeError
    # from int() before the check, and a value that is not a pair TypeError
    # or ValueError from unpacking it
    test1 = parse_mesh_file(fixture_path("test1"))
    mesh, profile, smoothness = parse_mesh_file(
        fixture_path("new_relations_b"))
    an = analyze_segments(all_levels(mesh, profile)[0], smoothness)
    greedy = order_segments(an, "greedy")
    for bad in ((3.9, 3), (4.5, 4), (3.5, 3), (3, Fraction(7, 2)), ("3", 3),
                (float("inf"), 3), (3, float("-inf")), (float("nan"), 3),
                (None, 1), (3, [3]), 3, (3, 3, 3)):
        for call in (lambda: bounds(*test1, bad),
                     lambda: certify_stable(*test1, bad),
                     lambda: euler_characteristic(*test1, bad),
                     lambda: configuration1_holds(*test1, bad),
                     lambda: oracle_spline_dim(*test1, bad),
                     lambda: h0_ideal_oracle(an, bad),
                     lambda: order_segments(an, "auto", bad),
                     lambda: contribution_sets(an, greedy, bad)):
            with pytest.raises(ValueError, match="not a pair of integers"):
                call()
    assert bounds(*test1, (3.0, Fraction(3))) == bounds(*test1, (3, 3))
    assert certify_stable(*test1, (3.0, 3)) == (True, 37)
    assert euler_characteristic(*test1, (3.0, Fraction(3))) == (37, 37)
    assert configuration1_holds(*test1, (3.0, 3)) \
        == configuration1_holds(*test1, (3, 3))
    assert oracle_spline_dim(*test1, (3.0, 3)) == 37
    assert h0_ideal_oracle(an, (4.0, 4)) == h0_ideal_oracle(an, (4, 4))
    assert order_segments(an, "auto", (4.0, 4)) == order_segments(an, "auto",
                                                                  (4, 4))
    assert contribution_sets(an, greedy, (4.0, 4)).h0_terms \
        == contribution_sets(an, greedy, (4, 4)).h0_terms


def test_a_bi_degree_of_two_ints_is_taken_as_it_is():
    # a tuple of two exact ints is returned as it is; any other integral
    # pair, True included, is read into a new tuple of ints
    m = (3, 4)
    assert check_bidegree(m) is m
    for other in ([3, 4], (3.0, 4), (Fraction(3), 4), (True, 4), (3, False)):
        got = check_bidegree(other)
        assert got == tuple(other) and all(type(c) is int for c in got)
    assert check_bidegree((True, 1)) == (1, 1)


def test_a_non_integral_deficit_or_smoothness_is_refused_where_it_enters():
    # int() truncated these: a deficit of (1.5, 1.9) read (1, 1), a default
    # r of 1.5 read 1 and an override's r of 2.5 read 2; as for a
    # bi-degree, an integral value of any type reads as an int
    mesh, _, _ = make([(0, 0, 1, 1), (1, 0, 2, 1), (0, 1, 2, 2)])
    f = next(f for f in mesh.faces if f.x0 == 1)
    for bad in ((1.5, 1.9), (1, Fraction(1, 2)), (1, "1"), (None, 1)):
        with pytest.raises(MalformedError, match=r"deficit of Rect\(x0="):
            build_profile(mesh, {f: bad})
    with pytest.raises(MalformedError, match=r"levels\[1\]: 0\.5 is not"):
        build_profile(mesh, {f: (1, 1)},
                      explicit_levels=[(0, 0), (0.5, 1), (1, 1)])
    for bad in (1.5, Fraction(3, 2), "1", float("nan"), float("inf")):
        with pytest.raises(MalformedError, match="default smoothness"):
            build_smoothness(mesh, bad)
    with pytest.raises(MalformedError,
                       match=r"override \(h, 1, \[0, 2\]\): 2\.5 is not"):
        build_smoothness(mesh, 1, [("h", 1, (0, 2), 2.5)])
    profile = build_profile(mesh, {f: (1.0, Fraction(1))},
                            explicit_levels=[(0, 0), (1.0, 1)])
    assert profile == build_profile(mesh, {f: (1, 1)})
    assert all(type(c) is int for d in profile.face_deficit.values()
               for c in d + profile.levels[1])
    smoothness = build_smoothness(mesh, 2.0, [("h", 1, (0, 2), Fraction(3))])
    assert smoothness == build_smoothness(mesh, 2, [("h", 1, (0, 2), 3)])
    assert {type(r) for r in smoothness.edge_r.values()} == {int}
    assert bounds(mesh, profile, smoothness, (4, 4)) == bounds(
        mesh, build_profile(mesh, {f: (1, 1)}),
        build_smoothness(mesh, 2, [("h", 1, (0, 2), 3)]), (4, 4))


def test_ordering_strategy_is_recorded():
    rep = run("new_relations_b", (4, 4), ordering="input")
    assert rep.ordering_strategy == "input"
    assert all(r.strategy == "input" for r in rep.rows if r.segment_count)


def test_config1_report_is_boolean():
    mesh, profile, smoothness = _tight_island()
    report = configuration1_holds(mesh, profile, smoothness, (2, 2))
    assert not report and report.failures
    assert configuration1_holds(mesh, profile, smoothness, (4, 4))


def _reference_meshes():
    triples = [(name, parse_mesh_file(fixture_path(name)))
               for name, _ in CANONICAL]
    # the meshes of the random axis-swap test
    rng = random.Random(7)
    triples += [(f"split {k}", random_split_mesh(rng)[:3]) for k in range(60)]
    rng = random.Random(19)
    triples += [(f"region {k}", random_region_mesh(rng)) for k in range(6)]
    triples += [("ring", ring_region_mesh()), ("island", island_region_mesh())]
    # three levels with unequal deficit coordinates and crossed pairs
    rects = [(i, j, i + 1, j + 1) for j in range(4) for i in range(4)]
    deficits = [(2, 1) if (i, j) in {(1, 1), (2, 1), (1, 2)}
                else (1, 0) if (i + j) % 3 == 0 else (0, 0)
                for j in range(4) for i in range(4)]
    triples.append(("skew", make(rects, deficits=deficits, r=1,
                                 overrides=[("v", 2, (0, 4), 2)])))
    # the seeded mixed-r reruns, whose levels cross lines of r 0, 1 and 2
    for seed, name in enumerate(MIXED_R):
        mesh, profile, _ = parse_mesh_file(fixture_path(name))
        triples.append((f"{name} mixed-r", (mesh, profile,
                                            mixed_r(mesh, seed))))
    return triples


# from m = 0, below the top deficit, where the boxes clamp at 0 and
# configuration 1 fails, to (8, 8)
REFERENCE_DEGREES = list(itertools.product(range(9), repeat=2))


def test_config1_by_pair_classes_matches_the_per_vertex_check():
    # each level is checked against the componentwise max and min of its
    # crossed pairs, so the meshes include levels whose pairs differ
    seen = {"holds": 0, "fails": 0, "case b": 0, "mixed pairs": 0}
    for label, triple in _reference_meshes():
        mesh, profile, smoothness = triple
        seen["mixed pairs"] += any(
            len({smoothness.vertex_pair[v] for v in lv.interior_vertices}) > 1
            for lv in all_levels(mesh, profile))
        for m in REFERENCE_DEGREES:
            rep = configuration1_holds(*triple, m)
            want = reference_config1(*triple, m)
            assert (rep.holds, rep.failures, rep.case_b_levels) == want, \
                (label, m)
            seen["holds" if rep.holds else "fails"] += 1
            seen["case b"] += bool(rep.case_b_levels)
    assert min(seen.values()) > 0, seen


def test_compiled_chi_matches_the_cell_by_cell_reference():
    # the ring and some region meshes have relative cycles, where chi is
    # still reported
    cycles = 0
    for label, triple in _reference_meshes():
        cycles += not check_assumptions(all_levels(*triple[:2])).ok
        for m in REFERENCE_DEGREES:
            assert euler_characteristic(*triple, m) \
                == reference_chi(*triple, m), (label, m)
    assert cycles


class CountingDict(ReadOnlyDict):
    # read-only, so the SmoothnessProfile below keeps it as it is
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_config1_looks_up_no_vertex_where_it_holds():
    mesh, profile, smoothness = parse_mesh_file(fixture_path("test2"))
    pairs = CountingDict(smoothness.vertex_pair)
    counting = SmoothnessProfile(smoothness.edge_r, pairs)
    bounds(mesh, profile, counting, (2, 2))
    held = failed = 0
    for m in [(a, b) for a in range(2, 7) for b in range(2, 7)]:
        pairs.lookups = 0
        rep = bounds(mesh, profile, counting, m)
        config = configuration1_holds(mesh, profile, counting, m)
        # the failures are listed from the per-mesh (pair, vertex) list, so
        # no call at m looks a vertex up, where it fails either
        assert pairs.lookups == 0, m
        assert rep.config1 == config.holds == (not config.failures), m
        held += config.holds
        failed += not config.holds
    assert held and failed


def test_euler_characteristic_matches_certified_oracle():
    mesh, profile, smoothness = parse_mesh_file(fixture_path("new_relations_a"))
    chi, direct = euler_characteristic(mesh, profile, smoothness, (3, 3))
    assert chi == direct == 17


def test_fixture_reports_pin_their_published_values():
    expectations = {
        "test1": dict(chi=37, certified=True, exact=37),
        "test2": dict(chi=75, certified=True, exact=75),
        "new_relations_a": dict(chi=17, certified=True, exact=17),
        "new_relations_b": dict(chi=41, certified=True, exact=41),
        "test3": dict(chi=143, certified=False, upper=146),
    }
    for name, want in expectations.items():
        m = dict(CANONICAL)[name]
        rep = run(name, m)
        for field, value in want.items():
            assert getattr(rep, field) == value, (name, field)


def test_chi_cross_check_catches_a_broken_term(monkeypatch):
    # the leveled and direct sums are compiled independently, so a wrong
    # vertex increment in the leveled one cannot go unnoticed: each vertex
    # term gains the box at corner (3, 3), of size 1 at m = (3, 3), which
    # makes every vertex increment there one too large
    module = sys.modules["tmeshdim.bounds"]
    real = module.vertex_increment_terms
    monkeypatch.setattr(module, "vertex_increment_terms",
                        lambda *args: real(*args) + [((3, 3), 1)])
    mesh, profile, smoothness = parse_mesh_file(fixture_path("test1"))
    with pytest.raises(DecompositionMismatch,
                       match="leveled chi 1 != direct chi 37"):
        bounds(mesh, profile, smoothness, (3, 3))
    with pytest.raises(DecompositionMismatch,
                       match="leveled chi 1 != direct chi 37"):
        euler_characteristic(mesh, profile, smoothness, (3, 3))


# the sweep of --degrees 2,2:4,4, in the CLI's colex order
DEGREES = [(a, b) for b in range(2, 5) for a in range(2, 5)]


def test_degree_sweep_builds_the_levels_once(monkeypatch, capsys):
    module = sys.modules["tmeshdim.bounds"]
    real = module.all_levels
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, "all_levels", counted)
    assert main(["certify", fixture_path("test1"),
                 "--degrees", "2,2:4,4"]) == 0
    assert len(calls) == 1
    fresh = [bounds(*parse_mesh_file(fixture_path("test1")), m)
             for m in DEGREES]
    assert capsys.readouterr().out == render_certify_text(fresh)

    del calls[:]
    triple = parse_mesh_file(fixture_path("test1"))
    reports = []
    for m in DEGREES:
        rep = bounds(*triple, m, ordering="greedy")
        assert certify_stable(*triple, m, ordering="greedy") == (
            rep.certified, rep.exact)
        reports.append(rep)
    assert len(calls) == 1

    fresh = [bounds(*parse_mesh_file(fixture_path("test1")), m,
                    ordering="greedy") for m in DEGREES]
    assert len(calls) == 1 + len(DEGREES)
    assert render_machine(reports, "bounds") == render_machine(fresh,
                                                                "bounds")


def test_degree_sweep_evaluates_chi_and_config1_once_per_degree(
        monkeypatch, capsys):
    module = sys.modules["tmeshdim.bounds"]
    calls = {"euler_characteristic": [], "configuration1_holds": []}
    for name, seen in calls.items():
        def counted(*args, real=getattr(module, name), seen=seen):
            seen.append(args[3])
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert main(["bounds", fixture_path("test1"),
                 "--degrees", "2,2:4,4"]) == 0
    capsys.readouterr()
    assert calls == {name: DEGREES for name in calls}


def test_prepared_memo_is_bounded():
    module = sys.modules["tmeshdim.bounds"]
    cap = module._MEMO_CAP
    triples = [single_face() for _ in range(cap + 1)]
    for triple in triples:
        bounds(*triple, (1, 1))
    assert len(module._memo) == cap
    keys = [tuple(id(x) for x in triple) for triple in triples]
    assert keys[0] not in module._memo
    assert keys[-1] in module._memo


BUILT_MAPS = ((0, "edge_faces"), (0, "face_edges"), (0, "vertex_edges"),
              (1, "face_deficit"), (1, "edge_deficit"),
              (1, "vertex_deficit"), (2, "edge_r"), (2, "vertex_pair"))


def refuses_every_change(mp):
    key = next(iter(mp))
    value = mp[key]
    for change in (lambda: operator.setitem(mp, key, value),
                   lambda: operator.delitem(mp, key),
                   lambda: operator.ior(mp, {key: value}),
                   lambda: mp.update({key: value}),
                   lambda: mp.setdefault(key, value),
                   lambda: mp.pop(key), mp.popitem, mp.clear):
        with pytest.raises(TypeError, match="does not change"):
            change()


def test_the_built_maps_do_not_change_in_place():
    # the memo keys its records on the triple's identity, so a map changed
    # in place would leave them stale (test1 at (4, 4) kept chi 121 after
    # every r was raised to 2, where a fresh triple reads 37). Every map the
    # builders give refuses the change; a pickled or copied triple reports
    # what the original does, and its maps refuse it too
    triple = parse_mesh_file(fixture_path("test1"))
    want = bounds(*triple, (4, 4))
    assert want.chi == 121
    for twin in (triple, pickle.loads(pickle.dumps(triple)),
                 copy.deepcopy(triple)):
        for part, name in BUILT_MAPS:
            mp = getattr(twin[part], name)
            assert type(mp) is ReadOnlyDict
            refuses_every_change(mp)
            assert mp == getattr(triple[part], name), name
        assert bounds(*twin, (4, 4)) == want


def test_a_hand_built_triple_refuses_a_change_in_place():
    # the constructors put every map given as a plain dict in a
    # ReadOnlyDict, so a triple built by hand cannot go stale under the
    # memo either: test1 at (4, 4) read chi 121 and bounds 112..121 after
    # its plain-dict r was changed to 2 in place, where a fresh triple with
    # r = 2 reads chi 37 and bounds 28..43
    mesh, profile, smoothness = triple = parse_mesh_file(fixture_path("test1"))

    def by_hand(edge_r, vertex_pair):
        return (TMesh(mesh.faces, mesh.edges, mesh.vertices,
                      dict(mesh.edge_faces), dict(mesh.face_edges),
                      dict(mesh.vertex_edges)),
                LeveledProfile(dict(profile.face_deficit),
                               dict(profile.edge_deficit),
                               dict(profile.vertex_deficit),
                               profile.deficit_set, profile.levels,
                               profile.steps),
                SmoothnessProfile(dict(edge_r), dict(vertex_pair)))

    hand = by_hand(smoothness.edge_r, smoothness.vertex_pair)
    want = bounds(*triple, (4, 4))
    assert (want.chi, want.lower_general, want.upper) == (121, 112, 121)
    assert bounds(*hand, (4, 4)) == want
    for part, name in BUILT_MAPS:
        mp = getattr(hand[part], name)
        assert type(mp) is ReadOnlyDict and mp == getattr(triple[part], name)
        refuses_every_change(mp)
    assert bounds(*hand, (4, 4)) == want
    raised = bounds(*by_hand({e: 2 for e in smoothness.edge_r},
                             {v: (2, 2) for v in smoothness.vertex_pair}),
                    (4, 4))
    assert (raised.chi, raised.lower_general, raised.upper) == (37, 28, 43)
    # a ReadOnlyDict given is kept, not copied
    kept = SmoothnessProfile(smoothness.edge_r, smoothness.vertex_pair)
    assert kept.edge_r is smoothness.edge_r
    assert kept.vertex_pair is smoothness.vertex_pair


def test_certify_stable_gives_what_bounds_reports_on_the_fixtures():
    # certify_stable skips the oracle and stops at the first level whose
    # ideal bound misses its island count, yet must give bounds' verdict
    degrees = [(a, b) for a in range(2, 7) for b in range(2, 7)]
    for name, _ in CANONICAL:
        triple = parse_mesh_file(fixture_path(name))
        for m in degrees:
            rep = bounds(*triple, m, with_oracle=True)
            assert all(row.weights for row in rep.rows
                       if row.segment_count)
            exact = rep.exact if rep.certified else None
            assert certify_stable(*triple, m) == (rep.certified, exact)


def test_the_work_at_a_fixed_bi_degree_does_not_grow_with_r(monkeypatch):
    # at m below the r's every rule and oracle row reads r only through
    # caps that m sets, so test1 at a default r of 10^6 reports what it
    # reports at 5 (as 4 and 7 do), oracle included. The work is counted as
    # it runs, so a regression fails here instead of running for minutes:
    # no power grid is built for a generator that cannot fit in the box
    # of m, and none reaches the sliced rank unless it fits in its ambient
    # box; each least covering value (theta's thresholds and the lam
    # records' caps) takes O(log r) covering tests; and no loop of
    # the oracle module runs over more than a few hundred values
    oracle_mod = sys.modules["tmeshdim.oracle"]
    segments_mod = sys.modules["tmeshdim.segments"]
    big, degrees = 10 ** 6, ((2, 2), (3, 3), (4, 3), (4, 4))
    top = max(map(max, degrees))
    grids, tests, inside = [], [], False

    def power_grid(direction, knot, degree, extra=(0, 0)):
        assert degree + max(extra) <= top, (direction, degree, extra)
        grids.append(degree)
        return real_grid(direction, knot, degree, extra)

    def sliced_quotient_dim(generators, ambient, lbox):
        for _, bideg in generators:
            assert bideg[0] <= ambient[0] and bideg[1] <= ambient[1]
        return real_sliced(generators, ambient, lbox)

    def weight(rs, cap):
        if inside:
            tests[-1] += 1
        return real_weight(rs, cap)

    def least_cover(rs):
        nonlocal inside
        tests.append(0)
        inside = True
        try:
            found = real_least_cover(rs)
        finally:
            inside = False
        assert tests[-1] <= 2 * big.bit_length(), rs
        return found

    def short_range(*args):
        assert len(range(*args)) <= 500, args
        return range(*args)

    real_grid = oracle_mod.power_grid
    real_sliced = oracle_mod.sliced_quotient_dim
    real_weight = segments_mod._weight
    real_least_cover = segments_mod._least_cover
    monkeypatch.setattr(oracle_mod, "power_grid", power_grid)
    monkeypatch.setattr(oracle_mod, "sliced_quotient_dim",
                        sliced_quotient_dim)
    monkeypatch.setattr(segments_mod, "_weight", weight)
    monkeypatch.setattr(segments_mod, "_least_cover", least_cover)
    monkeypatch.setattr(oracle_mod, "range", short_range, raising=False)
    with open(fixture_path("test1")) as f:
        doc = json.load(f)

    def reports(r):
        doc["smoothness"] = {"default": r, "overrides": []}
        mesh, profile, smoothness = parse_mesh_dict(doc)
        got = [bounds(mesh, profile, smoothness, m, ordering=ordering,
                      with_oracle=True)
               for ordering in ("greedy", "auto") for m in degrees]
        ideal = [h0_ideal_oracle(analyze_segments(lv, smoothness), m)
                 for lv in all_levels(mesh, profile) for m in degrees]
        return got, ideal

    reports(1)  # the recorders see the grids of low r
    assert any(tests) and grids
    want = reports(5)
    for r in (4, 7, big):
        assert reports(r) == want, r
