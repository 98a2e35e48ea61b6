"""End-to-end dimension reports: chi, bounds, certification."""

import copy
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from tmeshdim import (DecompositionMismatch, LeveledProfile,
                      SmoothnessProfile, TMesh, bounds,
                      certify_stable, configuration1_holds,
                      constant_complex_dims, contribution_sets,
                      euler_characteristic, all_levels, analyze_segments,
                      dim_M, order_segments)
from tmeshdim.cli import main
from tmeshdim.mesh import ReadOnlyDict, bd_sub
from tmeshdim.meshfile import (parse_mesh_file, render_certify_text,
                               render_machine)

from .helpers import fixture_path, grid, make, single_face
from .helpers.randmesh import (island_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .helpers.univariate import tensor_grid_dim

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
    # sum fractional terms at (4.5, 4); integral values of any type keep
    # their reports
    test1 = parse_mesh_file(fixture_path("test1"))
    mesh, profile, smoothness = parse_mesh_file(
        fixture_path("new_relations_b"))
    an = analyze_segments(all_levels(mesh, profile)[0], smoothness)
    greedy = order_segments(an, "greedy")
    for bad in ((3.9, 3), (4.5, 4), (3, Fraction(7, 2)), ("3", 3)):
        for call in (lambda: bounds(*test1, bad),
                     lambda: certify_stable(*test1, bad),
                     lambda: order_segments(an, "auto", bad),
                     lambda: contribution_sets(an, greedy, bad)):
            with pytest.raises(ValueError, match="not a pair of integers"):
                call()
    assert bounds(*test1, (3.0, Fraction(3))) == bounds(*test1, (3, 3))
    assert certify_stable(*test1, (3.0, 3)) == (True, 37)
    assert order_segments(an, "auto", (4.0, 4)) == order_segments(an, "auto",
                                                                  (4, 4))
    assert contribution_sets(an, greedy, (4.0, 4)).h0_terms \
        == contribution_sets(an, greedy, (4, 4)).h0_terms


def test_ordering_strategy_is_recorded():
    rep = run("new_relations_b", (4, 4), ordering="input")
    assert rep.ordering_strategy == "input"
    assert all(r.strategy == "input" for r in rep.rows if r.segment_count)


def test_constant_complex_dims_track_c():
    mesh, profile, smoothness = island_region_mesh()
    lv = all_levels(mesh, profile)[0]
    h2, h1, h0 = constant_complex_dims(lv, (3, 3))
    dm = dim_M(profile.levels, 1, (0, 0), (3, 3))
    assert (h2, h1, h0) == (0, 0, lv.c * dm)


def test_config1_report_is_boolean():
    mesh, profile, smoothness = _tight_island()
    report = configuration1_holds(mesh, profile, smoothness, (2, 2))
    assert not report and report.failures
    assert configuration1_holds(mesh, profile, smoothness, (4, 4))


def config1_reference(mesh, profile, smoothness, m):
    """(holds, failures, case_b_levels) from every vertex's own pair."""
    levels, top = profile.levels, profile.top
    failures = []
    case_b = []
    for lv in all_levels(mesh, profile):
        gap = bd_sub(m, levels[min(lv.index, top)])
        prev_gap = bd_sub(m, levels[lv.index - 1])
        saturated = bool(lv.interior_vertices)
        for v in lv.interior_vertices:
            r_h, r_v = smoothness.vertex_pair[v]
            if not (gap[0] >= r_h and gap[1] >= r_v):
                failures.append((lv.index, v))
            if not (prev_gap[0] <= r_h and prev_gap[1] <= r_v):
                saturated = False
        if saturated:
            case_b.append(lv.index)
    return not failures, tuple(failures), tuple(case_b)


def test_config1_by_pair_classes_matches_the_per_vertex_check():
    triples = [(parse_mesh_file(fixture_path(name)),
                [(a, b) for a in range(2, 7) for b in range(2, 7)])
               for name, _ in CANONICAL]
    # the meshes of the random axis-swap test, from m = 0 so that
    # configuration 1 also fails on them
    rng = random.Random(7)
    triples += [(random_split_mesh(rng)[:3],
                 [(a, b) for a in range(6) for b in range(6)])
                for _ in range(60)]
    seen = {"holds": 0, "fails": 0, "case b": 0}
    for triple, degrees in triples:
        for m in degrees:
            rep = configuration1_holds(*triple, m)
            want = config1_reference(*triple, m)
            assert (rep.holds, rep.failures, rep.case_b_levels) == want, m
            seen["holds" if rep.holds else "fails"] += 1
            seen["case b"] += bool(rep.case_b_levels)
    assert min(seen.values()) > 0, seen


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
        if rep.config1:
            assert pairs.lookups == 0, m
            held += 1
        else:
            # the failures are listed vertex by vertex
            assert pairs.lookups > 0, m
            failed += 1
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
    # the leveled and direct sums are computed independently, so a wrong
    # vertex increment in the leveled one cannot go unnoticed
    module = sys.modules["tmeshdim.bounds"]
    real = module.dim_vertex_increment
    monkeypatch.setattr(module, "dim_vertex_increment",
                        lambda *args: real(*args) + 1)
    mesh, profile, smoothness = parse_mesh_file(fixture_path("test1"))
    with pytest.raises(DecompositionMismatch,
                       match="leveled chi 1 != direct chi 37"):
        bounds(mesh, profile, smoothness, (3, 3))
    with pytest.raises(DecompositionMismatch):
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
              (0, "vertex_faces"), (1, "face_deficit"), (1, "edge_deficit"),
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
