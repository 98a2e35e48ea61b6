"""Acceptance gates: one test and one printed verdict line per criterion.

Run with -rA (the repo default) so the verdict lines of passing tests are
visible in the summary. Suites are built once per module and shared between
the criteria that reference them.
"""

import random
import time
from fractions import Fraction

import pytest
from tmeshdim import (all_levels, analyze_segments, bounds, certify_stable,
                      check_assumptions, contribution_sets,
                      dim_edge_increment, dim_L, dim_M,
                      dim_power_sum, dim_power_sum_in, dim_shift,
                      dim_vertex_increment, h0_ideal_upper, order_segments,
                      relative_betti, span_dim, span_quotient_dim,
                      SegmentOrdering)
from tmeshdim.mesh import bd_add, bd_max, bd_min, bd_sub
from tmeshdim.meshfile import parse_mesh_file
from tmeshdim.oracle import power_grid

from .helpers import fixture_path, grid, single_face
from .helpers.randmesh import (blob_region_mesh, island_region_mesh,
                               random_region_mesh, random_split_mesh,
                               ring_region_mesh)
from .helpers.snf import relative_homology_ranks
from .helpers.univariate import tensor_grid_dim


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def tensor_suite():
    t0 = time.monotonic()
    rows = []
    for k in (2, 3):
        for r in (0, 1, 2):
            mesh, profile, smoothness = grid(k, r=r)
            for m0 in range(2, 6):
                for m1 in range(2, 6):
                    if min(m0, m1) <= r:
                        continue
                    rep = bounds(mesh, profile, smoothness, (m0, m1),
                                 with_oracle=True)
                    rows.append((k, r, rep))
    return rows, time.monotonic() - t0


def _bounded_draw(rng):
    # redraw when a deficit island punches a hole in some active region:
    # such meshes carry no bounds at all, only diagnostics
    while True:
        mesh, profile, smoothness, r = random_split_mesh(rng)
        if check_assumptions(all_levels(mesh, profile)).ok:
            return mesh, profile, smoothness, r


@pytest.fixture(scope="module")
def random_suite():
    # each case is reported under the greedy ordering, with the oracle, and
    # under auto, whose exhaustive search on levels of up to 8 interior
    # segments can only tighten the upper bound; the oracle is not rerun
    rng = random.Random(1729)
    t0 = time.monotonic()
    rows = []
    for _ in range(200):
        mesh, profile, smoothness, r = _bounded_draw(rng)
        for m0 in range(r + 1, 6):
            for m1 in range(r + 1, 6):
                rep = bounds(mesh, profile, smoothness, (m0, m1),
                             ordering="greedy", with_oracle=True)
                cert = certify_stable(mesh, profile, smoothness, (m0, m1),
                                      ordering="greedy")
                auto = bounds(mesh, profile, smoothness, (m0, m1),
                              ordering="auto")
                rows.append((rep, cert, auto))
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def single_face_report():
    t0 = time.monotonic()
    mesh, profile, smoothness = single_face()
    rep = bounds(mesh, profile, smoothness, (3, 3), with_oracle=True)
    return rep, time.monotonic() - t0


def test_criterion_1_single_face_exactness(single_face_report):
    rep, dt = single_face_report
    ok = (rep.chi == rep.lower_general == rep.upper == rep.oracle == 16
          and rep.certified and dt < 1.0)
    verdict(1, ok, f"single face gives chi=lower=upper=oracle={rep.chi} "
            f"at m=(3,3) in {dt:.3f}s")


def test_criterion_2_tensor_grid_degeneration(tensor_suite):
    rows, dt = tensor_suite
    bad = 0
    for k, r, rep in rows:
        want = tensor_grid_dim(k, r, rep.m)
        if not (rep.certified and rep.lower_general == rep.upper == rep.chi
                == rep.oracle == want):
            bad += 1
    ok = bad == 0 and dt < 10.0
    verdict(2, ok, f"{len(rows)} grid cases (k in 2..3, r in 0..2, "
            f"m up to (5,5)) all match the univariate product, "
            f"{bad} mismatches, {dt:.2f}s")


def test_criterion_3_randomized_sandwich(random_suite):
    rows, dt = random_suite
    skipped = sandwich_bad = auto_bad = config1_bad = tightened = 0
    for rep, _, auto in rows:
        if not rep.assumption_ok:
            skipped += 1
            continue
        if not rep.lower_general <= rep.oracle <= rep.upper:
            sandwich_bad += 1
        if not (auto.lower_general <= rep.oracle <= auto.upper <= rep.upper):
            auto_bad += 1
        tightened += auto.upper < rep.upper
        if rep.config1 and not rep.chi <= rep.oracle:
            config1_bad += 1
    ok = (sandwich_bad == 0 and auto_bad == 0 and config1_bad == 0
          and skipped == 0 and dt < 300.0)
    verdict(3, ok, f"{len(rows)} bi-degree cases over 200 random meshes: "
            f"{sandwich_bad} greedy and {auto_bad} auto sandwich and "
            f"{config1_bad} lower-bound violations, auto tightens the "
            f"upper bound in {tightened}, {skipped} diagnostics-only, "
            f"{dt:.1f}s")


def test_criterion_4_certification_soundness(random_suite):
    rows, _ = random_suite
    certified = unsound = inconsistent = 0
    for rep, (stable, value), _ in rows:
        if stable != rep.certified:
            inconsistent += 1
        if not stable:
            continue
        certified += 1
        if not (value == rep.chi == rep.oracle == rep.exact):
            unsound += 1
    ok = unsound == 0 and inconsistent == 0 and certified > 0
    verdict(4, ok, f"{certified} certified cases all agree with the oracle, "
            f"{unsound} unsound, {inconsistent} inconsistent flags")


def test_criterion_5_chi_decomposition_identity(single_face_report,
                                                tensor_suite, random_suite):
    reports = [single_face_report[0]]
    reports += [rep for _, _, rep in tensor_suite[0]]
    reports += [rep for rep, _, _ in random_suite[0]]
    bad = sum(1 for rep in reports if rep.chi != rep.chi_direct)
    verdict(5, bad == 0, f"leveled chi equals direct chi on all "
            f"{len(reports)} reports, {bad} mismatches")


LEVEL_SEQS = [
    ((0, 0),),
    ((0, 0), (1, 1)),
    ((0, 0), (0, 1)),
    ((0, 0), (1, 0)),
    ((0, 0), (2, 2)),
    ((0, 0), (1, 1), (2, 2)),
    ((0, 0), (0, 1), (1, 2)),
    ((0, 0), (1, 0), (2, 1)),
    ((0, 0), (1, 1), (1, 2)),
    ((0, 0), (1, 1), (2, 1)),
    ((0, 0), (0, 1), (0, 2)),
    ((0, 0), (1, 0), (2, 0)),
    ((0, 0), (2, 1), (2, 2)),
]
SHIFTS = [(a, b) for a in range(4) for b in range(4)]
M_SAMPLES = ((3, 3), (4, 2), (6, 6))


def _mono(exp):
    return ({(0, 0): 1}, exp)


def _vertex_span(levels, i, rH, rV, dstar_h, dstar_v, m, x0, y0):
    top = len(levels) - 1
    n_prev = levels[i - 1]
    alpha = bd_max(n_prev, dstar_h if dstar_h is not None else n_prev)
    beta = bd_max(n_prev, dstar_v if dstar_v is not None else n_prev)
    gens = [power_grid("t", y0, rH + 1, bd_sub(alpha, n_prev)),
            power_grid("s", x0, rV + 1, bd_sub(beta, n_prev))]
    lbox = bd_sub(m, levels[i]) if i <= top else None
    return span_quotient_dim(gens, bd_sub(m, n_prev), lbox)


def test_criterion_6_graded_formulas_match_span_oracle():
    t0 = time.monotonic()
    checks = 0
    mono0 = _mono((0, 0))
    for e in SHIFTS:
        for m0 in range(7):
            for m1 in range(7):
                assert dim_shift((m0, m1), e) == span_dim([_mono(e)],
                                                          (m0, m1))
                checks += 1
    for levels in LEVEL_SEQS:
        top = len(levels) - 1
        for i in range(top + 1):
            for e in SHIFTS:
                for m in M_SAMPLES:
                    want = span_dim([_mono(bd_add(levels[i], e))], m)
                    assert dim_L(levels, i, e, m) == want
                    checks += 1
        for i in range(1, top + 2):
            lbox_of = (lambda m, e: bd_sub(bd_sub(m, levels[i]), e)
                       if i <= top else None)
            for e in SHIFTS:
                for m in M_SAMPLES:
                    ambient = bd_sub(bd_sub(m, levels[i - 1]), e)
                    want = span_quotient_dim([mono0], ambient, lbox_of(m, e))
                    assert dim_M(levels, i, e, m) == want
                    checks += 1
            for r in (0, 1, 2):
                for e in ((0, r + 1), (r + 1, 0)):
                    for m in M_SAMPLES:
                        ambient = bd_sub(bd_sub(m, levels[i - 1]), e)
                        want = span_quotient_dim([mono0], ambient,
                                                 lbox_of(m, e))
                        assert dim_edge_increment(levels, i, e, m) == want
                        checks += 1
            for rH in (0, 1, 2):
                for rV in (0, 1, 2):
                    for dstar in ((None, None), ((1, 1), (0, 0)),
                                  ((1, 1), (2, 2))):
                        for m in M_SAMPLES:
                            got = dim_vertex_increment(
                                levels, i, (0, rH + 1), (rV + 1, 0), m,
                                dstar[0], dstar[1])
                            want = _vertex_span(levels, i, rH, rV, dstar[0],
                                                dstar[1], m, Fraction(1, 3),
                                                Fraction(2))
                            assert got == want
                            checks += 1
    knots = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(2))
    for count in (1, 2, 3, 4):
        for degrees in ((1,) * count, tuple(1 + (k % 3) for k in
                                            range(count))):
            for b in ((0, 0), (1, 1)):
                for m in ((3, 3), (6, 5)):
                    gens = [power_grid("t", knots[k], degrees[k], b)
                            for k in range(count)]
                    assert dim_power_sum(degrees, b, m, "t") == span_dim(
                        gens, m)
                    checks += 1
    for levels in (((0, 0), (1, 1)), ((0, 0), (1, 1), (2, 2))):
        top = len(levels) - 1
        for i in range(1, top + 2):
            for gens in ([("t", Fraction(1, 2), 2, (0, 0))],
                         [("t", Fraction(1), 1, (0, 0)),
                          ("t", Fraction(2), 2, (1, 0))],
                         [("s", Fraction(1, 3), 2, (0, 0)),
                          ("s", Fraction(1, 2), 2, (0, 1)),
                          ("s", Fraction(2, 3), 1, (0, 0))]):
                for m in ((4, 4), (6, 6)):
                    ambient = bd_sub(m, levels[i - 1])
                    lbox = bd_sub(m, levels[i]) if i <= top else None
                    want = span_quotient_dim([power_grid(*g) for g in gens],
                                             ambient, lbox)
                    assert dim_power_sum_in(levels, i, gens, m) == want
                    checks += 1
    dt = time.monotonic() - t0
    verdict(6, dt < 60.0, f"{checks} graded dimension formulas match the "
            f"span oracle exactly, {dt:.1f}s")


def _level_parts(mesh, profile, smoothness, m):
    """Recompute the per-level chi split from public pieces."""
    levels = profile.levels
    parts = []
    for lv in all_levels(mesh, profile):
        i = lv.index
        dm0 = dim_M(levels, i, (0, 0), m)
        part = len(lv.faces) * dm0
        for e in lv.interior_edges:
            r = smoothness.edge_r[e]
            shift = (0, r + 1) if e.axis == "h" else (r + 1, 0)
            part -= dm0 - dim_M(levels, i, shift, m)
        for v in lv.interior_vertices:
            r_h, r_v = smoothness.vertex_pair[v]
            dh = dv = None
            for e in mesh.vertex_edges[v]:
                d = profile.edge_deficit[e]
                if e.axis == "h":
                    dh = d if dh is None else bd_min(dh, d)
                else:
                    dv = d if dv is None else bd_min(dv, d)
            part += dm0 - dim_vertex_increment(levels, i, (0, r_v + 1),
                                               (r_h + 1, 0), m, dh, dv)
        parts.append(part)
    return parts


def _fixture_report(name, m):
    mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
    rep = bounds(mesh, profile, smoothness, m, with_oracle=True)
    return rep, _level_parts(mesh, profile, smoothness, m)


def test_criterion_7_bundled_fixture_values():
    problems = []
    rep, parts = _fixture_report("test1", (3, 3))
    if not (rep.certified and rep.exact == 37 and parts == [7, 30]):
        problems.append(f"test1 gave {rep.exact} split {parts}")
    rep, parts = _fixture_report("test2", (4, 4))
    if not (rep.certified and rep.exact == 75 and parts == [9, 66]):
        problems.append(f"test2 gave {rep.exact} split {parts}")
    rep, _ = _fixture_report("test3", (6, 6))
    if not (not rep.certified and rep.lower_special == 143
            and rep.upper == 146 and rep.oracle == 146):
        problems.append(f"test3 gave {rep.lower_special}/{rep.upper} "
                        f"oracle {rep.oracle}")
    rep, _ = _fixture_report("new_relations_a", (3, 3))
    if not (rep.certified and rep.exact == 17):
        problems.append(f"new_relations_a gave {rep.exact}")
    rep, _ = _fixture_report("new_relations_b", (4, 4))
    if not (rep.certified and rep.exact == 41):
        problems.append(f"new_relations_b gave {rep.exact}")
    rep, _ = _fixture_report("counterexample", (5, 5))
    if rep.oracle != 81:
        problems.append(f"counterexample oracle gave {rep.oracle}, see the "
                        "geometry note in the fixtures README")
    detail = ("37=30+7, 75=66+9, 143/146 with oracle 146, 17, 41, and "
              "oracle 81 all reproduced" if not problems
              else "; ".join(problems))
    verdict(7, not problems, detail)


def _block_table(name, m, which_level):
    mesh, profile, smoothness = parse_mesh_file(fixture_path(name))
    lv = all_levels(mesh, profile)[which_level - 1]
    an = analyze_segments(lv, smoothness)
    ordr = order_segments(an, "auto", m)
    sets = contribution_sets(an, ordr, m)
    blocks = (dim_M(profile.levels, lv.index, rho.e, m)
              for rho in an.interior)
    # each block and the part of it that the segment's records cover
    table = sorted((block, block - term)
                   for block, term in zip(blocks, sets.h0_terms))
    # fully covered segments pair each block with itself and contribute 0
    return [p for p in table if p[0] > p[1]], h0_ideal_upper(sets)


def test_criterion_8_segment_spot_checks():
    problems = []
    mesh, profile, smoothness = parse_mesh_file(
        fixture_path("new_relations_b"))
    lv = all_levels(mesh, profile)[0]
    an = analyze_segments(lv, smoothness)
    # the keys (h, 1, 1), (v, 1, 1), (v, 2, 1), (h, 2, 1) in that order
    ordr = SegmentOrdering("input", (0, 2, 3, 1))
    weights = dict(zip(an.index.keys,
                       (w for _, w, _ in
                        contribution_sets(an, ordr, (4, 4)).terms)))
    # the late vertical segment is crossed twice, each worth 4 - 1 - 1
    if weights[("v", 2, 1)] != 2 * (4 - 1 - 1):
        problems.append(f"weight {weights[('v', 2, 1)]} != 4")
    if sorted(weights.values()) != [0, 2, 4, 4]:
        problems.append(f"weight table {sorted(weights.values())}")
    for name, m, want_table, want_h0 in (
            ("test1", (3, 3), [(5, 0), (5, 3)], 7),
            ("new_relations_b", (4, 4), [(7, 0), (7, 5)], 9),
            ("test3", (6, 6), [(10, 0), (10, 7), (10, 7)], 16)):
        table, h0 = _block_table(name, m, 1)
        if table != want_table or h0 != want_h0:
            problems.append(f"{name} gave blocks {table} with h0 {h0}")
    detail = ("weight 4 = 2x(4-1-1); ideal bounds 5+5-3=7, 7+7-5=9, "
              "10+10+10-7-7=16 reproduced" if not problems
              else "; ".join(problems))
    verdict(8, not problems, detail)


def test_criterion_9_topology_oracle():
    t0 = time.monotonic()
    rng = random.Random(99)
    cases = [random_region_mesh(rng) for _ in range(47)]
    cases += [ring_region_mesh(), island_region_mesh(), blob_region_mesh()]
    regions = bad = 0
    for mesh, profile, _ in cases:
        for lv in all_levels(mesh, profile):
            regions += 1
            if not (relative_homology_ranks(lv) == relative_betti(lv)
                    == (lv.c, lv.h)):
                bad += 1
    dt = time.monotonic() - t0
    verdict(9, bad == 0 and dt < 30.0,
            f"Smith normal form confirms (components, holes) on {regions} "
            f"active regions from {len(cases)} meshes, {bad} mismatches, "
            f"{dt:.1f}s")
