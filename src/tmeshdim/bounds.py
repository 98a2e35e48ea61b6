"""Euler characteristic, dimension bounds, and stability certification.

The spline space dimension in bi-degree m is sandwiched between combinatorial
bounds built from the leveled quotient complexes: the Euler characteristic chi
is corrected downward by island counts and upward by per-segment ideal slack.
When the practical smoothness configuration holds and every level's ideal
bound meets its island count, chi is the exact dimension, independent of the
edge coordinates.

Chi is compiled once per mesh into signed sums of monomial-box sizes in which
only m varies, and configuration 1 into per-level crossed pairs.
"""

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Optional

from .graded import box_sum, dim_M_terms, vertex_increment_terms
from .levels import AssumptionReport, all_levels, check_assumptions
from .mesh import TMesh, bd_add, bd_max, bd_min, check_bidegree
from .segments import (analyze_segments, check_strategy, contribution_sets,
                       h0_ideal_upper, order_segments)


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


def _chi_sums(lvls, smoothness):
    """chi's leveled and direct decompositions as box terms merged by shift:
    per face dim_M(0, 0), less dim_M(0, 0) - dim_M(shift) per edge, plus
    dim_M(0, 0) less the vertex increment per vertex, by level or raw."""
    mesh, profile = lvls[0].mesh, lvls[0].profile
    levels = profile.levels
    shift = {e: _edge_shift(e.axis, smoothness.edge_r[e])
             for e in mesh.interior_edges}
    vdata = {v: _vertex_data(mesh, profile, smoothness, v)
             for v in mesh.interior_vertices}
    leveled = Counter()
    for lv in lvls:
        i = lv.index
        cells = [(dim_M_terms(levels, i, (0, 0)), len(lv.faces)
                  - len(lv.interior_edges) + len(lv.interior_vertices))]
        cells += [(dim_M_terms(levels, i, s), k) for s, k in
                  Counter(shift[e] for e in lv.interior_edges).items()]
        cells += [(vertex_increment_terms(levels, i, *vd), -k) for vd, k in
                  Counter(vdata[v] for v in lv.interior_vertices).items()]
        for terms, k in cells:
            for corner, c in terms:
                leveled[corner] += k * c
    direct = Counter(profile.face_deficit[f] for f in mesh.faces)
    for e in mesh.interior_edges:
        d = profile.edge_deficit[e]
        direct[d] -= 1
        direct[bd_add(d, shift[e])] += 1
    for v in mesh.interior_vertices:
        e_h, e_v, dstar_h, dstar_v = vdata[v]
        direct[profile.vertex_deficit[v]] += 1
        direct[bd_add(dstar_h, e_h)] -= 1
        direct[bd_add(dstar_v, e_v)] -= 1
        direct[bd_add(bd_max(dstar_h, dstar_v), bd_add(e_h, e_v))] += 1
    return tuple(tuple((corner, c) for corner, c in acc.items() if c)
                 for acc in (leveled, direct))


def euler_characteristic(mesh: TMesh, profile, smoothness, m):
    """(chi, chi_direct) at m: the leveled and the direct decomposition,
    each a box sum compiled once per mesh. The two agree on every valid
    input; a mismatch can only come from an implementation bug and raises
    DecompositionMismatch."""
    m = check_bidegree(m)
    leveled, direct = _prepared(mesh, profile, smoothness).chi
    chi, chi_direct = box_sum(leveled, m), box_sum(direct, m)
    if chi != chi_direct:
        raise DecompositionMismatch(
            f"leveled chi {chi} != direct chi {chi_direct} at m = {m}")
    return chi, chi_direct


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
    """Check practical smoothness at m against two pairs per level, the
    componentwise max and min of its crossed pairs (r_h, r_v): it holds at
    every vertex of level i when m - n_i dominates the max, and case b
    holds when m - n_{i-1} is dominated by the min. A level's (pair,
    vertex) list is walked only to list its failures when the max fails."""
    m = check_bidegree(m)
    prep = _prepared(mesh, profile, smoothness)
    levels, top = profile.levels, profile.top
    failures = []
    case_b = []
    for i, most, least, walk in prep.crossings:
        n_i, n_prev = levels[min(i, top)], levels[i - 1]
        g_h, g_v = m[0] - n_i[0], m[1] - n_i[1]
        if g_h < most[0] or g_v < most[1]:
            failures.extend((i, v) for (r_h, r_v), v in walk
                            if g_h < r_h or g_v < r_v)
        if m[0] - n_prev[0] <= least[0] and m[1] - n_prev[1] <= least[1]:
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
    relative cycles. chi holds the leveled and direct box sums, crossings
    per level with an interior vertex its index, the componentwise max and
    min of its crossed pairs (r_h, r_v) and its (pair, vertex) list in
    interior-vertex order, and dim_m per level dim_M(levels, i, (0, 0)) as
    box terms."""

    lvls: tuple
    assumption: AssumptionReport
    analyses: Optional[tuple]
    chi: tuple
    crossings: tuple
    dim_m: tuple


def _prepare(mesh, profile, smoothness) -> _Prepared:
    lvls = tuple(all_levels(mesh, profile))
    assumption = check_assumptions(lvls)
    analyses = (tuple(analyze_segments(lv, smoothness) for lv in lvls)
                if assumption.ok else None)
    crossings = []
    for lv in lvls:
        walk = tuple((smoothness.vertex_pair[v], v)
                     for v in lv.interior_vertices)
        if walk:
            r_h, r_v = zip(*(pair for pair, _ in walk))
            crossings.append((lv.index, (max(r_h), max(r_v)),
                              (min(r_h), min(r_v)), walk))
    return _Prepared(lvls, assumption, analyses, _chi_sums(lvls, smoothness),
                     tuple(crossings),
                     tuple(dim_M_terms(profile.levels, lv.index, (0, 0))
                           for lv in lvls))


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
    for k, lv in enumerate(prep.lvls):
        dm0 = box_sum(prep.dim_m[k], m)
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
    The levels, their topology, the segment analyses, chi's two
    decompositions as box sums and each level's crossed pairs are built
    once per (mesh, profile, smoothness) and reused by later calls on the
    same three objects, so a degree sweep pays for them once and each call
    evaluates them at m. The triple is treated as immutable, as TMesh documents.
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
