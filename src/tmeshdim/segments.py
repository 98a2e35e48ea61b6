"""Maximal segments per active level and the segment-side H0 upper bound.

A maximal segment is a maximal connected chain of collinear active edges.
Interior segments (point set disjoint from the domain boundary) index the
generators of the level's line ideal complex; the sets built here measure,
per segment and bi-degree, how much of its block is already covered by
crossing segments earlier in a chosen ordering, by segments meeting the
boundary, and by relations manufactured from parallel neighbors.
"""

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .graded import dim_M, dim_power_sum_in
from .levels import ActiveLevel, AssumptionViolated
from .linalg import rank_sparse
from .mesh import bd_sub
from .oracle import power_grid


EXHAUSTIVE_LIMIT = 8


class TooManyForExhaustive(Exception):
    pass


@dataclass(frozen=True)
class MaxSegment:
    level: int
    axis: str
    line: object
    lo: object
    hi: object
    edges: tuple
    interior: bool
    r: Optional[int]      # None when a non-interior chain mixes r values
    dp: tuple             # step shift for manufactured relations at this level

    @property
    def key(self):
        return (self.axis, self.line, self.lo)

    @property
    def e(self):
        return (0, self.r + 1) if self.axis == "h" else (self.r + 1, 0)


@dataclass(frozen=True)
class Crossing:
    key: tuple            # the crossing segment
    vertex: tuple
    r: int                # its smoothness at the crossing vertex
    interior: bool


class SegmentAnalysis:
    """Maximal segments of one level plus their crossing structure."""

    def __init__(self, level: ActiveLevel, smoothness):
        self.level = level
        self.smoothness = smoothness
        profile = level.profile
        i = level.index
        step = profile.steps[i - 1] if i <= profile.top else (0, 0)

        chains = {}
        for e in level.edges:
            chains.setdefault((e.axis, e.line), []).append(e)
        segs = []
        for (axis, line), es in chains.items():
            es.sort(key=lambda e: e.lo)
            run = [es[0]]
            for e in es[1:]:
                if e.lo == run[-1].hi:
                    run.append(e)
                else:
                    segs.append(self._mk(i, axis, line, run, step))
                    run = [e]
            segs.append(self._mk(i, axis, line, run, step))
        segs.sort(key=lambda s: s.key)
        self.segments = segs
        self.interior = tuple(s for s in segs if s.interior)
        self.by_key = {s.key: s for s in segs}

        self.crossers = {}
        self.icross = {}
        for rho in self.interior:
            recs = []
            for sig in segs:
                if sig.axis == rho.axis:
                    continue
                if not (sig.lo <= rho.line <= sig.hi
                        and rho.lo <= sig.line <= rho.hi):
                    continue
                vertex = (sig.line, rho.line) if rho.axis == "h" \
                    else (rho.line, sig.line)
                recs.append(Crossing(sig.key, vertex,
                                     self._r_at(sig, rho.line), sig.interior))
            self.crossers[rho.key] = tuple(recs)
            self.icross[rho.key] = frozenset(
                rec.key for rec in recs if rec.interior)

    def _mk(self, i, axis, line, run, step):
        mesh = self.level.mesh
        interior = not any(p in mesh.boundary_vertices
                           for e in run for p in e.endpoints())
        rs = {self.smoothness.edge_r[e] for e in run
              if e in self.smoothness.edge_r}
        r = rs.pop() if len(rs) == 1 else None
        dp = (step[0], 0) if axis == "h" else (0, step[1])
        return MaxSegment(i, axis, line, run[0].lo, run[-1].hi,
                          tuple(run), interior, r, dp)

    def _r_at(self, seg, coord):
        for e in seg.edges:
            if e.lo <= coord <= e.hi and e in self.smoothness.edge_r:
                return self.smoothness.edge_r[e]
        return seg.r


def analyze_segments(level: ActiveLevel, smoothness) -> SegmentAnalysis:
    return SegmentAnalysis(level, smoothness)


@dataclass(frozen=True)
class SegmentOrdering:
    strategy: str
    sequence: tuple       # interior segment keys; position + 1 = rank

    def ranks(self):
        return {k: n + 1 for n, k in enumerate(self.sequence)}


def _greedy_sequence(an: SegmentAnalysis):
    keys = sorted(s.key for s in an.interior)
    left = set(keys)
    comps = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            k = stack.pop()
            for k2 in an.icross[k]:
                if k2 in left and k2 not in comp:
                    comp.add(k2)
                    stack.append(k2)
        left -= comp
        comps.append(sorted(comp))
    seq = []
    for comp in comps:
        # the most crossed segment goes first so every other member may
        # count it among its predecessors
        hub = min(comp, key=lambda k: (-len(an.icross[k]),
                                       -(len(an.crossers[k]) - len(an.icross[k])),
                                       k))
        seq.append(hub)
        seq.extend(k for k in comp if k[0] != hub[0])
        seq.extend(k for k in comp if k[0] == hub[0] and k != hub)
    return tuple(seq)


def order_segments(an: SegmentAnalysis, strategy="auto",
                   m=None) -> SegmentOrdering:
    """Rank the interior segments. greedy needs no bi-degree; exhaustive
    minimizes the resulting upper bound at m over all orders."""
    keys = sorted(s.key for s in an.interior)
    n = len(keys)
    if strategy == "auto":
        strategy = "exhaustive" if n <= EXHAUSTIVE_LIMIT and m is not None \
            else "greedy"
    if strategy == "input":
        return SegmentOrdering("input", tuple(keys))
    if strategy == "greedy":
        return SegmentOrdering("greedy", _greedy_sequence(an))
    if strategy != "exhaustive":
        raise ValueError(f"unknown ordering strategy {strategy!r}")
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyForExhaustive(
            f"{n} interior segments exceed the exhaustive limit {EXHAUSTIVE_LIMIT}")
    if m is None:
        raise ValueError("exhaustive ordering needs a bi-degree")
    best = None
    best_seq = tuple(keys)
    for perm in permutations(keys):
        ordering = SegmentOrdering("exhaustive", perm)
        val = h0_ideal_upper(an, ordering, m, _skip_assumption=True)
        if best is None or val < best:
            best, best_seq = val, perm
    return SegmentOrdering("exhaustive", best_seq)


@dataclass
class ContributionSets:
    analysis: SegmentAnalysis
    ordering: SegmentOrdering
    m: tuple
    gamma: dict
    upsilon: dict
    theta: dict
    lam: dict
    weights: dict
    generators: dict


def _axis_index(axis: str) -> int:
    return 0 if axis == "h" else 1


def segment_weight(rho: MaxSegment, lam, m, levels) -> int:
    """Weight of a segment given its Λ records (pairs (key, r))."""
    ax = _axis_index(rho.axis)
    dm = levels[min(rho.level, len(levels) - 1)][ax]
    return sum(max(m[ax] - dm - r, 0) for _, r in lam)


def contribution_sets(an: SegmentAnalysis, ordering: SegmentOrdering,
                      m) -> ContributionSets:
    level = an.level
    profile = level.profile
    levels = profile.levels
    i = level.index
    top = profile.top
    rank = ordering.ranks()

    gamma = {}
    for rho in an.interior:
        mine = rank[rho.key]
        gamma[rho.key] = tuple(
            rec for rec in an.crossers[rho.key]
            if not rec.interior or rank[rec.key] < mine)

    upsilon = {rho.key: () for rho in an.interior}
    theta = {rho.key: () for rho in an.interior}
    if i <= top:
        for rho in an.interior:
            mine = rank[rho.key]
            ax = _axis_index(rho.axis)
            dm = levels[i][ax]
            thresh = m[ax] - dm + 1
            pairs = []
            for rho1 in an.interior:
                if (rho1.axis != rho.axis or rank[rho1.key] >= mine
                        or rho.r < rho1.r):
                    continue
                for k2 in sorted(an.icross[rho.key] & an.icross[rho1.key]):
                    pairs.append((rho1.key, k2))
            upsilon[rho.key] = tuple(pairs)

            def qualified(cutoff):
                seconds = {k2 for k1, k2 in pairs if rank[k1] < cutoff}
                got = sum(max(m[ax] - dm - an.by_key[k].r, 0)
                          for k in seconds)
                return got >= thresh

            perp = sorted(an.icross[rho.key])
            trips = []
            for a in perp:
                if not qualified(rank[a]):
                    continue
                for b in perp:
                    if rank[b] > rank[a] and an.by_key[b].r >= an.by_key[a].r:
                        trips.append((a, b))
            theta[rho.key] = tuple(trips)

    lam = {rho.key: {rec.key: rec.r for rec in gamma[rho.key]}
           for rho in an.interior}
    for rho in an.interior:
        for a, b in theta[rho.key]:
            lam[b][rho.key] = rho.r
            if rho.dp == (0, 0):
                lam[a][rho.key] = rho.r

    weights = {}
    generators = {}
    for rho in an.interior:
        recs = tuple(sorted(lam[rho.key].items()))
        weights[rho.key] = segment_weight(rho, recs, m, levels)
        gens = {}
        for key2, r2 in recs:
            gens[key2[1]] = (r2, (0, 0))
        for _, k2 in upsilon[rho.key]:
            line = k2[1]
            if line not in gens:
                gens[line] = (an.by_key[k2].r, rho.dp)
        direction = "s" if rho.axis == "h" else "t"
        generators[rho.key] = tuple(
            (direction, line, r2 + 1, extra)
            for line, (r2, extra) in sorted(gens.items()))
        lam[rho.key] = recs

    return ContributionSets(an, ordering, tuple(m), gamma, upsilon, theta,
                            lam, weights, generators)


def dim_D_contribution(rho, sets: ContributionSets, m=None) -> int:
    """Dimension of the covered part of one segment's block at bi-degree m."""
    if not isinstance(rho, MaxSegment):
        rho = sets.analysis.by_key[rho]
    if m is None:
        m = sets.m
    level = sets.analysis.level
    levels = level.profile.levels
    i = level.index
    ax = _axis_index(rho.axis)
    dm = levels[min(i, level.profile.top)][ax]
    if sets.weights[rho.key] >= m[ax] - dm + 1:
        return dim_M(levels, i, rho.e, m)
    gens = sets.generators[rho.key]
    if not gens:
        return 0
    return dim_power_sum_in(levels, i, gens, bd_sub(m, rho.e))


def h0_ideal_upper(an: SegmentAnalysis, ordering: SegmentOrdering, m,
                   sets: Optional[ContributionSets] = None,
                   _skip_assumption=False) -> int:
    """Upper bound for the H0 dimension of the level's line ideal complex."""
    if an.level.h != 0 and not _skip_assumption:
        raise AssumptionViolated(
            f"level {an.level.index} has relative cycles (h = {an.level.h})")
    if sets is None:
        sets = contribution_sets(an, ordering, m)
    levels = an.level.profile.levels
    total = 0
    for rho in an.interior:
        block = dim_M(levels, an.level.index, rho.e, m)
        total += max(block - dim_D_contribution(rho, sets), 0)
    return total


def h0_ideal_oracle(an: SegmentAnalysis, m) -> int:
    """Exact H0 dimension of the line ideal complex by brute-force rank.

    Blocks are the interior segments' quotient pieces; relations come from
    every perpendicular crossing at an active interior vertex, with the
    block component dropped when the crossing partner meets the boundary.
    """
    level = an.level
    levels = level.profile.levels
    i = level.index
    top = level.profile.top
    n_prev = levels[i - 1]
    n_i = levels[i] if i <= top else None

    def reps(shift):
        hi = bd_sub(bd_sub(m, n_prev), shift)
        if hi[0] < 0 or hi[1] < 0:
            return []
        if n_i is None:
            return [(a, b) for a in range(hi[0] + 1) for b in range(hi[1] + 1)]
        lo = bd_sub(bd_sub(m, n_i), shift)
        return [(a, b) for a in range(hi[0] + 1) for b in range(hi[1] + 1)
                if a > lo[0] or b > lo[1]]

    offs = {}
    basis = {}
    total = 0
    for rho in an.interior:
        mono = reps(rho.e)
        offs[rho.key] = total
        basis[rho.key] = {ab: total + k for k, ab in enumerate(mono)}
        total += len(mono)

    rows = []
    seen = set()
    for rho in an.interior:
        for rec in an.crossers[rho.key]:
            pair = tuple(sorted([rho.key, rec.key]))
            if pair in seen:
                continue
            seen.add(pair)
            sig = an.by_key[rec.key]
            h_seg, v_seg = (rho, sig) if rho.axis == "h" else (sig, rho)
            r_h = rho.r if rho.axis == "h" else rec.r
            r_v = rho.r if rho.axis == "v" else rec.r
            e_gamma = (r_v + 1, r_h + 1)
            x0, y0 = rec.vertex
            terms = []
            if h_seg.interior:
                terms.append((h_seg, power_grid("s", x0, r_v + 1)[0], 1))
            if v_seg.interior:
                terms.append((v_seg, power_grid("t", y0, r_h + 1)[0], -1))
            for mu in reps(e_gamma):
                row = {}
                for seg, grid, sign in terms:
                    block = basis[seg.key]
                    for (es, et), c in grid.items():
                        col = block.get((mu[0] + es, mu[1] + et))
                        if col is not None:
                            row[col] = row.get(col, 0) + sign * c
                if row:
                    rows.append(row)
    return total - rank_sparse(rows)
