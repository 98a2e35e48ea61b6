"""Euler characteristic, dimension bounds, and stability certification.

The spline space dimension in bi-degree m is sandwiched between combinatorial
bounds built from the leveled quotient complexes: the Euler characteristic chi
is corrected downward by island counts and upward by per-segment ideal slack.
When the practical smoothness configuration holds and every level's ideal
bound meets its island count, chi is the exact dimension, independent of the
edge coordinates.
"""

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Optional

from .graded import dim_L, dim_M, dim_shift, dim_vertex_increment
from .levels import AssumptionReport, all_levels, check_assumptions
from .mesh import TMesh, bd_add, bd_max, bd_min, bd_sub
from .segments import (analyze_segments, check_bidegree, check_strategy,
                       contribution_sets, h0_ideal_upper, order_segments)


class DecompositionMismatch(Exception):
    """The leveled and direct Euler characteristic evaluations disagree."""


def _edge_shift(axis: str, r: int):
    return (0, r + 1) if axis == "h" else (r + 1, 0)


def _vertex_data(mesh, profile, smoothness, v):
    """Line shifts and minimal line deficits of the two lines through v."""
    r_h, r_v = smoothness.vertex_pair[v]
    e_h = (0, r_v + 1)
    e_v = (r_h + 1, 0)
    dstar_h = dstar_v = None
    for e in mesh.vertex_edges[v]:
        d = profile.edge_deficit[e]
        if e.axis == "h":
            dstar_h = d if dstar_h is None else bd_min(dstar_h, d)
        else:
            dstar_v = d if dstar_v is None else bd_min(dstar_v, d)
    return e_h, e_v, dstar_h, dstar_v


@dataclass(frozen=True)
class _ChiTerms:
    """The inputs of both chi sums that do not depend on m, as multisets.

    per_level holds (index, face count, Counter of edge shifts, Counter of
    vertex data) for each level; faces, edges and vertices hold the raw
    cells' deficits, (deficit, shift) pairs and (deficit, vertex data).
    """

    levels: tuple
    per_level: tuple
    faces: Counter
    edges: Counter
    vertices: Counter


def _chi_terms(lvls, smoothness) -> _ChiTerms:
    mesh, profile = lvls[0].mesh, lvls[0].profile
    shift = {e: _edge_shift(e.axis, smoothness.edge_r[e])
             for e in mesh.interior_edges}
    vdata = {v: _vertex_data(mesh, profile, smoothness, v)
             for v in mesh.interior_vertices}
    per_level = tuple(
        (lv.index, len(lv.faces),
         Counter(shift[e] for e in lv.interior_edges),
         Counter(vdata[v] for v in lv.interior_vertices))
        for lv in lvls)
    return _ChiTerms(
        profile.levels, per_level,
        Counter(profile.face_deficit[f] for f in mesh.faces),
        Counter((profile.edge_deficit[e], shift[e])
                for e in mesh.interior_edges),
        Counter((profile.vertex_deficit[v], vdata[v])
                for v in mesh.interior_vertices))


def euler_characteristic(mesh: TMesh, profile, smoothness, m):
    """(chi, chi_direct) at m, summed once per level and once on the raw
    cell data. The two agree on every valid input; a mismatch can only come
    from an implementation bug and raises DecompositionMismatch."""
    terms = _prepared(mesh, profile, smoothness).terms
    levels = terms.levels
    chi = 0
    for i, n_faces, edges, vertices in terms.per_level:
        dm0 = dim_M(levels, i, (0, 0), m)
        part = n_faces * dm0
        for shift, k in edges.items():
            part -= k * (dm0 - dim_M(levels, i, shift, m))
        for (e_h, e_v, dstar_h, dstar_v), k in vertices.items():
            part += k * (dm0 - dim_vertex_increment(levels, i, e_h, e_v, m,
                                                    dstar_h, dstar_v))
        chi += part

    direct = sum(k * dim_shift(m, d) for d, k in terms.faces.items())
    for (d, shift), k in terms.edges.items():
        direct -= k * (dim_shift(m, d) - dim_shift(m, bd_add(d, shift)))
    for (d, (e_h, e_v, dstar_h, dstar_v)), k in terms.vertices.items():
        ideal = (dim_shift(m, bd_add(dstar_h, e_h))
                 + dim_shift(m, bd_add(dstar_v, e_v))
                 - dim_shift(m, bd_add(bd_max(dstar_h, dstar_v),
                                       bd_add(e_h, e_v))))
        direct += k * (dim_shift(m, d) - ideal)

    if chi != direct:
        raise DecompositionMismatch(
            f"leveled chi {chi} != direct chi {direct} at m = {m}")
    return chi, direct


def constant_complex_dims(level, m):
    """Homology dimensions (h2, h1, h0) of the level's constant complex."""
    levels = level.profile.levels
    top = level.profile.top
    dm0 = dim_M(levels, level.index, (0, 0), m)
    h2 = dim_L(levels, top, (0, 0), m) if level.index == top + 1 else 0
    return h2, level.h * dm0, level.c * dm0


@dataclass(frozen=True)
class Config1Report:
    """Practical-smoothness check plus per-level vanishing diagnostics.

    holds is true when m minus the level deficit dominates the crossed
    smoothness pair at every active interior vertex of every level.
    case_b_levels lists levels where the opposite inequality holds at every
    vertex, which forces the level's ideal homology to vanish outright.
    """

    holds: bool
    failures: tuple
    case_b_levels: tuple

    def __bool__(self) -> bool:
        return self.holds


def configuration1_holds(mesh: TMesh, profile, smoothness, m) -> Config1Report:
    """Check practical smoothness at m once per distinct crossed pair
    (r_h, r_v) of a level, read off the chi terms' vertex keys, where
    e_h = (0, r_v + 1) and e_v = (r_h + 1, 0). A level's vertices are walked
    only to list its failures when some pair fails."""
    prep = _prepared(mesh, profile, smoothness)
    levels, top = profile.levels, profile.top
    failures = []
    case_b = []
    for lv, (i, _, _, vertices) in zip(prep.lvls, prep.terms.per_level):
        gap = bd_sub(m, levels[min(i, top)])
        prev_gap = bd_sub(m, levels[i - 1])
        pairs = {(e_v[0] - 1, e_h[1] - 1) for e_h, e_v, _, _ in vertices}
        bad = {(r_h, r_v) for r_h, r_v in pairs
               if not (gap[0] >= r_h and gap[1] >= r_v)}
        if bad:
            failures.extend((i, v) for v in lv.interior_vertices
                            if smoothness.vertex_pair[v] in bad)
        if pairs and all(prev_gap[0] <= r_h and prev_gap[1] <= r_v
                         for r_h, r_v in pairs):
            case_b.append(i)
    return Config1Report(not failures, tuple(failures), tuple(case_b))


@dataclass(frozen=True)
class LevelRow:
    """Per-level diagnostics of a dimension report."""

    index: int
    c: int
    h: int
    dim_m: int
    h0_constant: int
    h0_ideal: Optional[int]
    segment_count: int
    strategy: str
    ordering: tuple
    weights: tuple

    @property
    def slack(self) -> Optional[int]:
        if self.h0_ideal is None:
            return None
        return self.h0_ideal - self.h0_constant


@dataclass(frozen=True)
class DimReport:
    """Bounds, certification and per-level diagnostics at one bi-degree.

    When any level has relative cycles the report carries diagnostics only:
    chi is still present but every bound field is None and certified is
    False.
    """

    m: tuple
    chi: int
    chi_direct: int
    rows: tuple
    assumption_ok: bool
    violations: tuple
    config1: bool
    case_b_levels: tuple
    ordering_strategy: str
    lower_general: Optional[int]
    lower_special: Optional[int]
    upper: Optional[int]
    clamped: bool
    certified: bool
    exact: Optional[int]
    oracle: Optional[int]
    notes: tuple


@dataclass(frozen=True)
class _Prepared:
    """Everything a report needs that depends on the mesh, its deficits and
    its smoothness but not on m; analyses is None when a level has
    relative cycles."""

    lvls: tuple
    assumption: AssumptionReport
    analyses: Optional[tuple]
    terms: _ChiTerms


def _prepare(mesh, profile, smoothness) -> _Prepared:
    lvls = tuple(all_levels(mesh, profile))
    assumption = check_assumptions(lvls)
    analyses = (tuple(analyze_segments(lv, smoothness) for lv in lvls)
                if assumption.ok else None)
    return _Prepared(lvls, assumption, analyses,
                     _chi_terms(lvls, smoothness))


# Prepared records of the last few (mesh, profile, smoothness) triples, by
# object identity. Each entry holds the triple itself, so no id can be
# recycled while its entry lives.
_MEMO_CAP = 8
_memo = OrderedDict()


def _prepared(mesh, profile, smoothness) -> _Prepared:
    key = (id(mesh), id(profile), id(smoothness))
    # pop and re-insert put the entry last, so the first is the least
    # recently used
    entry = _memo.pop(key, None)
    if entry is None:
        entry = (mesh, profile, smoothness,
                 _prepare(mesh, profile, smoothness))
    _memo[key] = entry
    if len(_memo) > _MEMO_CAP:
        _memo.popitem(last=False)
    return entry[3]


def _level_rows(prep: _Prepared, ordering, m):
    """Yield the LevelRow of each level at m, in level order; the segment
    work of a level runs only when its row is asked for."""
    levels = prep.lvls[0].profile.levels
    for k, lv in enumerate(prep.lvls):
        dm0 = dim_M(levels, lv.index, (0, 0), m)
        h0c = lv.c * dm0
        if prep.analyses is None:
            yield LevelRow(lv.index, lv.c, lv.h, dm0, h0c, None,
                           0, "none", (), ())
            continue
        an = prep.analyses[k]
        ordr = order_segments(an, ordering, m)
        sets = contribution_sets(an, ordr, m)
        weights = (weight for _, weight, _ in sets.terms)
        yield LevelRow(lv.index, lv.c, lv.h, dm0, h0c, h0_ideal_upper(sets),
                       len(an.interior), ordr.strategy,
                       tuple(map(an.index.keys.__getitem__, ordr.order)),
                       tuple(zip(an.index.keys, weights)))


def bounds(mesh: TMesh, profile, smoothness, m, ordering="auto",
           with_oracle=False) -> DimReport:
    """Assemble the dimension report for one bi-degree.

    ordering picks the segment ordering strategy per level; auto uses the
    exhaustive search on small levels and the greedy heuristic otherwise.
    The levels, their topology, the segment analyses and the m-independent
    chi terms are built once per (mesh, profile, smoothness) and reused by
    later calls on the same three objects, so a degree sweep pays for them
    once. The triple is treated as immutable, as TMesh documents.
    """
    m = check_bidegree(m)
    check_strategy(ordering)
    prep = _prepared(mesh, profile, smoothness)
    assumption = prep.assumption
    chi, chi_direct = euler_characteristic(mesh, profile, smoothness, m)
    config = configuration1_holds(mesh, profile, smoothness, m)
    rows = tuple(_level_rows(prep, ordering, m))

    notes = []
    for i in config.case_b_levels:
        notes.append(f"level {i}: every crossing smoothness reaches the "
                     "degree gap, so the level's ideal homology vanishes")

    oracle_val = None
    if with_oracle:
        from .oracle import oracle_spline_dim
        oracle_val = oracle_spline_dim(mesh, profile, smoothness, m)

    if not assumption.ok:
        notes.append("levels with relative cycles: "
                     + ", ".join(str(i) for i in assumption.violations)
                     + "; bounds suppressed")
        return DimReport(m, chi, chi_direct, rows, False,
                         assumption.violations, config.holds,
                         config.case_b_levels, ordering, None, None, None,
                         False, False, None, oracle_val, tuple(notes))

    lower_general = chi - sum(r.h0_constant for r in rows)
    lower_special = chi if config.holds else None
    upper = chi + sum(r.h0_ideal - r.h0_constant for r in rows)
    clamped = False
    if lower_special is not None and upper < lower_special:
        upper = lower_special
        clamped = True
        notes.append("upper bound clamped to the certified lower bound")

    certified = config.holds and all(r.h0_ideal == r.h0_constant
                                     for r in rows)
    if config.holds and not certified:
        gaps = {r.index: r.slack for r in rows if r.slack}
        notes.append("ideal slack by level: "
                     + ", ".join(f"{i}: {s}" for i, s in sorted(gaps.items())))
    exact = chi if certified else oracle_val
    return DimReport(m, chi, chi_direct, rows, True, (),
                     config.holds, config.case_b_levels, ordering,
                     lower_general, lower_special, upper, clamped,
                     certified, exact, oracle_val, tuple(notes))


def certify_stable(mesh: TMesh, profile, smoothness, m, ordering="auto"):
    """(certified, exact dimension or None) at bi-degree m.

    Gives what bounds() reports as (certified, exact) without the oracle,
    but does only the work the verdict needs: no segment work when the
    assumption or configuration 1 fails, and none past the first level
    whose ideal bound misses its island count. It shares the per-mesh work
    of bounds(): a call after bounds() on the same three objects rebuilds
    no level, topology or segment analysis.
    """
    m = check_bidegree(m)
    check_strategy(ordering)
    prep = _prepared(mesh, profile, smoothness)
    if not (prep.assumption.ok
            and configuration1_holds(mesh, profile, smoothness, m)):
        return False, None
    if any(r.h0_ideal != r.h0_constant
           for r in _level_rows(prep, ordering, m)):
        return False, None
    return True, euler_characteristic(mesh, profile, smoothness, m)[0]
