"""End-to-end dimension reports: chi, bounds, certification."""

import random
import sys

import pytest
from tmeshdim import (DecompositionMismatch, SmoothnessProfile, bounds,
                      certify_stable, configuration1_holds,
                      constant_complex_dims, euler_characteristic,
                      all_levels, dim_M)
from tmeshdim.cli import main
from tmeshdim.mesh import bd_sub
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


class CountingDict(dict):
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


KEYED_RECORDS = ("gamma", "upsilon", "theta", "lam", "weights", "generators")


def _unread(name):
    """A field that may be set but not read."""
    def read(self):
        raise AssertionError(f"the bounds path read ContributionSets.{name}")
    return property(read, lambda self, value: None)


def test_bounds_path_reads_no_keyed_contribution_record(monkeypatch):
    # bounds and certify_stable take the per-segment terms by position;
    # building the Fraction-keyed dicts is left to callers that read them
    segments = sys.modules["tmeshdim.segments"]
    unread = type("Unread", (segments.ContributionSets,),
                  {name: _unread(name) for name in KEYED_RECORDS})
    monkeypatch.setattr(segments, "ContributionSets", unread)
    degrees = [(a, b) for a in range(2, 7) for b in range(2, 7)]
    for name, _ in CANONICAL:
        triple = parse_mesh_file(fixture_path(name))
        for m in degrees:
            rep = bounds(*triple, m, with_oracle=True)
            assert all(row.weights for row in rep.rows
                       if row.segment_count)
            bounds(*triple, m, ordering="greedy")
            exact = rep.exact if rep.certified else None
            assert certify_stable(*triple, m) == (rep.certified, exact)
