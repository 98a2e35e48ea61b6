"""Maximal segments per active level and the segment-side H0 upper bound.

A maximal segment is a maximal connected chain of collinear active edges.
Interior segments (point set disjoint from the domain boundary) index the
generators of the level's line ideal complex; the sets built here measure,
per segment and bi-degree, how much of its block is already covered by
crossing segments earlier in a chosen ordering, by segments meeting the
boundary, and by relations manufactured from parallel neighbors.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Optional

from .graded import dim_M, dim_power_sum_in
from .levels import ActiveLevel, AssumptionViolated
from .linalg import rank_sparse
from .mesh import bd_sub
from .oracle import power_grid


EXHAUSTIVE_LIMIT = 8
STRATEGIES = ("auto", "input", "greedy", "exhaustive")


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
    """Maximal segments of one level plus their crossing structure.

    index holds the same crossing structure in integer form (SegmentIndex);
    the contribution rules and the ordering search run on it.

    An analysis serves every bi-degree. Besides the greedy order and the
    search tables, it keeps two records into which no bi-degree enters,
    each entry made when it is first asked for: lam_records, per (k, rule
    key) segment k's lam records and generators, and cover_thresholds, per
    mask of theta's j's the least surplus at which they cover a block.
    Their keys are rule keys and masks of the level's own segments, so
    they are bounded by the level, not by the number of bi-degrees asked,
    and they hold no reference back to the analysis.
    """

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
        self.index = SegmentIndex(self)
        self.lam_records = _LamRecords(self.index)
        self.cover_thresholds = _CoverThresholds(self.index)

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

    @cached_property
    def greedy_order(self):
        """The greedy order's segment numbers; it does not depend on the
        bi-degree."""
        ix = self.index
        left = set(range(len(self.interior)))
        comps = []
        while left:
            start = min(left)
            comp = {start}
            stack = [start]
            while stack:
                k = stack.pop()
                for j in ix.icross[k]:
                    if j in left and j not in comp:
                        comp.add(j)
                        stack.append(j)
            left -= comp
            comps.append(sorted(comp))
        seq = []
        for comp in comps:
            # the most crossed segment goes first so every other member may
            # count it among its predecessors
            hub = min(comp, key=lambda k: (-len(ix.icross[k]),
                                           -(len(ix.crossers[k])
                                             - len(ix.icross[k])),
                                           k))
            seq.append(hub)
            seq.extend(k for k in comp if ix.axis[k] != ix.axis[hub])
            seq.extend(k for k in comp if ix.axis[k] == ix.axis[hub]
                       and k != hub)
        return tuple(seq)


class SegmentIndex:
    """One level's crossing structure with small ints in place of keys.

    Interior segment k is an.interior[k], so the numbers follow the sorted
    keys. Every segment also has a position p in an.segments (again the key
    order) and every line a rank in lines, the sorted line coordinates, so
    the rules hash and compare ints, never Fractions.

    keys, axis, r, dp, pos  per k: the key, 0 for "h" and 1 for "v", the
                            smoothness, the step shift and the position
    of                      key -> k
    line                    per position: the rank of the segment's line
    crossers                per k: one (j, p, r, record) per crossing
                            segment, j its number (-1 off the interior),
                            r its smoothness at the crossing
    icross                  per k: its interior crossers' numbers, ascending
    common                  per k: (k1, shared, its bitmask) for each other
                            same-axis k1, ascending, whose interior crossers
                            meet k's in the non-empty tuple shared; empty
                            above the top level, where no relations are
                            manufactured
    theta                   theta's candidates: (k, a, 1 << a, the bit of k
                            among a's crossers or 0 when k's line carries a
                            step, ((b, the bit of k among b's crossers),
                            ...)) for each owner k and a in icross[k] with
                            some b in icross[k] other than a and
                            r[b] >= r[a]; empty above the top level

    An order is given to the rules as before[k], the bitmask of the segments
    placed before k. A lam mask has one bit per crosser of k; crossers are
    listed in position order, so it lists k's lam records in that order.
    k's rule key is its lam mask with the bitmask of its upsilon j's above
    it, shifted by len(crossers[k]); at a given m, k's term depends on
    nothing else.
    """

    def __init__(self, an: SegmentAnalysis):
        segs, interior = an.segments, an.interior
        n = len(interior)
        self.keys = [s.key for s in interior]
        self.of = {key: k for k, key in enumerate(self.keys)}
        pos = {s.key: p for p, s in enumerate(segs)}
        self.lines = sorted({s.line for s in segs})
        line_rank = {x: q for q, x in enumerate(self.lines)}
        self.line = [line_rank[s.line] for s in segs]
        self.axis = [_axis_index(s.axis) for s in interior]
        self.r = [s.r for s in interior]
        self.dp = [s.dp for s in interior]
        self.pos = [pos[s.key] for s in interior]
        self.crossers = [
            tuple((self.of.get(rec.key, -1), pos[rec.key], rec.r, rec)
                  for rec in an.crossers[s.key])
            for s in interior]
        self.icross = [tuple(sorted(c[0] for c in cs if c[0] >= 0))
                       for cs in self.crossers]
        self.common = [()] * n
        self.theta = ()
        if an.level.index > an.level.profile.top:
            return
        for k in range(n):
            mine = set(self.icross[k])
            pairs = []
            for k1 in range(n):
                if k1 == k or self.axis[k1] != self.axis[k]:
                    continue
                shared = tuple(j for j in self.icross[k1] if j in mine)
                if shared:
                    pairs.append((k1, shared, sum(1 << j for j in shared)))
            self.common[k] = tuple(pairs)
        bit = [{c[0]: 1 << t for t, c in enumerate(cs) if c[0] >= 0}
               for cs in self.crossers]
        cands = []
        for k, perp in enumerate(self.icross):
            for a in perp:
                seconds = tuple((b, bit[b][k]) for b in perp
                                if b != a and self.r[b] >= self.r[a])
                if seconds:
                    k_in_a = bit[a][k] if self.dp[k] == (0, 0) else 0
                    cands.append((k, a, 1 << a, k_in_a, seconds))
        self.theta = tuple(cands)

    @cached_property
    def search_tables(self):
        """Per k, its rule key before theta (_rule_key) at every before
        mask; the exhaustive search builds them for levels of at most
        EXHAUSTIVE_LIMIT segments only."""
        n = len(self.keys)
        return [[_rule_key(self, k, b) for b in range(1 << n)]
                for k in range(n)]


def analyze_segments(level: ActiveLevel, smoothness) -> SegmentAnalysis:
    return SegmentAnalysis(level, smoothness)


def check_strategy(strategy):
    """Raise ValueError unless strategy is one of STRATEGIES."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown ordering strategy {strategy!r}")


@dataclass(frozen=True)
class SegmentOrdering:
    strategy: str
    order: tuple          # interior segment numbers, the first placed first


def order_segments(an: SegmentAnalysis, strategy="auto",
                   m=None) -> SegmentOrdering:
    """Order the interior segments. greedy needs no bi-degree; exhaustive
    minimizes the resulting upper bound at m over all orders."""
    check_strategy(strategy)
    n = len(an.interior)
    if strategy == "auto":
        strategy = "exhaustive" if n <= EXHAUSTIVE_LIMIT and m is not None \
            else "greedy"
    if strategy == "input":
        return SegmentOrdering("input", tuple(range(n)))
    if strategy == "greedy":
        return SegmentOrdering("greedy", an.greedy_order)
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyForExhaustive(
            f"{n} interior segments exceed the exhaustive limit {EXHAUSTIVE_LIMIT}")
    if m is None:
        raise ValueError("exhaustive ordering needs a bi-degree")
    if n <= 1:
        return SegmentOrdering("exhaustive", tuple(range(n)))
    # The objective is h0_ideal_upper. The rules are looked up in tables
    # indexed by before masks, and a segment's term depends only on its rule
    # key, which many orders share, so each term is computed once per search.
    rules = an.index.search_tables
    terms = [_Terms(an, k, m) for k in range(n)]
    return SegmentOrdering("exhaustive",
                           _walk(rules, _theta_at(an, rules, m), terms))


def _walk(rules, theta_at, terms):
    """The lex-first order of least total term, by a depth-first walk.

    The walk places segment numbers in increasing order, so it meets the
    orders in lex order. A segment's rule key is fixed when it is placed
    after the segments of mask P: rules[x][P], plus theta's bits, which
    _order_keys would set as follows. Each such bit is the bit of owner k
    among x's crossers, which gamma has set already when k is in P; when
    k comes after x, before[k] & before[a] is before[a].
      - As b of owner k and first a: the bit of k when a is in P and a
        qualifies at its own before mask.
      - As a: the bit of k when some second b is not in P and a qualifies
        at P.
    Terms are at least 0, so a branch whose partial sum reaches the best
    total so far holds no order better than that one, and is skipped.
    """
    n = len(rules)
    as_a = [[] for _ in range(n)]
    as_b = [[] for _ in range(n)]
    for k, a, _, k_in_a, seconds, qualifies in theta_at:
        if k_in_a:
            as_a[a].append((sum(1 << b for b, _ in seconds), k_in_a,
                            qualifies))
        for b, k_in_b in seconds:
            as_b[b].append((a, k_in_b, qualifies))
    before = [0] * n      # before[x] for each x placed on the current path
    order = [0] * n       # order[d]: the segment at place d
    total = [0] * n       # total[d]: the sum of the terms ahead of place d
    placed = [0] * n      # placed[d]: the mask of the segments ahead of d
    best = best_order = None
    d = x = 0
    while True:
        done = placed[d]      # P
        while x < n and done >> x & 1:
            x += 1
        if x == n:
            if d == 0:
                return best_order
            d -= 1
            x = order[d] + 1
            continue
        key = rules[x][done]
        for a, k_in_b, qualifies in as_b[x]:
            if done >> a & 1 and qualifies[before[a]]:
                key |= k_in_b
        for b_bits, k_in_a, qualifies in as_a[x]:
            if b_bits & ~done and qualifies[done]:
                key |= k_in_a
        partial = total[d] + terms[x][key]
        if best is not None and partial >= best:
            x += 1
        elif d == n - 1:
            order[d] = x
            best, best_order = partial, tuple(order)
            x += 1
        else:
            order[d], before[x] = x, done
            d += 1
            total[d], placed[d] = partial, done | 1 << x
            x = 0


@dataclass
class ContributionSets:
    """One level's rule records under an ordering at bi-degree m.

    terms[k] holds interior segment k's lam records ((position, r) pairs),
    weight and generators (as dim_power_sum_in takes them); before and
    theta_pairs are the order's before masks and, per owner k, theta's
    (a, b) pairs. The dicts gamma, upsilon, theta, lam, weights and
    generators, keyed by the interior segment keys in key order, are
    built on first read.
    """

    analysis: SegmentAnalysis
    ordering: SegmentOrdering
    m: tuple
    terms: tuple
    before: list
    theta_pairs: tuple

    def _by_key(self, values):
        return dict(zip(self.analysis.index.keys, values))

    @cached_property
    def gamma(self):
        ix = self.analysis.index
        return self._by_key(
            tuple(ix.crossers[k][t][3] for t in _bits(_gamma(ix, k, b)))
            for k, b in enumerate(self.before))

    @cached_property
    def upsilon(self):
        ix = self.analysis.index
        return self._by_key(
            tuple((ix.keys[k1], ix.keys[j])
                  for k1, shared, _ in _upsilon(ix, k, b) for j in shared)
            for k, b in enumerate(self.before))

    @cached_property
    def theta(self):
        keys = self.analysis.index.keys
        return self._by_key(tuple((keys[a], keys[b]) for a, b in pairs)
                            for pairs in self.theta_pairs)

    @cached_property
    def lam(self):
        segs = self.analysis.segments
        return self._by_key(tuple((segs[p].key, rc) for p, rc in recs)
                            for recs, _, _ in self.terms)

    @cached_property
    def weights(self):
        return self._by_key(weight for _, weight, _ in self.terms)

    @cached_property
    def generators(self):
        return self._by_key(gens for _, _, gens in self.terms)


def _axis_index(axis: str) -> int:
    return 0 if axis == "h" else 1


def segment_weight(rho: MaxSegment, lam, m, levels) -> int:
    """Weight of a segment given its Λ records (pairs (key, r))."""
    ax = _axis_index(rho.axis)
    dm = levels[min(rho.level, len(levels) - 1)][ax]
    return sum(max(m[ax] - dm - r, 0) for _, r in lam)


def _before(order):
    """before[k]: the bitmask of the segments ahead of k in order, a
    sequence of interior segment numbers."""
    before = [0] * len(order)
    seen = 0
    for k in order:
        before[k] = seen
        seen |= 1 << k
    return before


def _bits(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


# The contribution rules. Each takes an order as before masks; the search
# tabulates them over every mask, contribution_sets evaluates them at one
# order's masks.

def _gamma(ix: SegmentIndex, k, before):
    """The lam mask of k's crossers that are off the interior or come
    earlier."""
    mask = 0
    for t, c in enumerate(ix.crossers[k]):
        if c[0] < 0 or before >> c[0] & 1:
            mask |= 1 << t
    return mask


def _upsilon(ix: SegmentIndex, k, before):
    """The entries of common[k] whose partner k1 is earlier with
    r[k] >= r[k1]; upsilon pairs k1 with each j of their shared."""
    r = ix.r
    return [c for c in ix.common[k] if before >> c[0] & 1 and r[k] >= r[c[0]]]


def _upsilon_js(ix: SegmentIndex, k, before):
    """The mask of upsilon's j's."""
    js = 0
    for _, _, shared in _upsilon(ix, k, before):
        js |= shared
    return js


def _rule_key(ix: SegmentIndex, k, before):
    """k's rule key before theta: the lam mask of gamma and the j's of
    upsilon."""
    return _gamma(ix, k, before) | _upsilon_js(ix, k, before) << len(
        ix.crossers[k])


def _covers(ix: SegmentIndex, js, surplus):
    """Theta's test on a mask of j's: alone they would cover the whole
    block."""
    return sum(max(surplus - ix.r[j], 0) for j in _bits(js)) > surplus


class _CoverThresholds(dict):
    """Per mask js of theta's j's, the least surplus at or above 0 at which
    _covers holds, or None when it holds at none, computed on first use.

    _covers holds at every surplus below 0. At or above 0 it needs two j's
    with r below the surplus, since every r is at least 0; then raising the
    surplus by 1 raises the sum by at least 2, so from the threshold on it
    holds at every surplus.
    """

    def __init__(self, ix: SegmentIndex):
        super().__init__()
        self.ix = ix

    def __missing__(self, js):
        found = self[js] = None if js & (js - 1) == 0 else next(
            s for s in count() if _covers(self.ix, js, s))
        return found

    def covers(self, js, surplus):
        """_covers(ix, js, surplus), read from the threshold of js."""
        least = self[js]
        return surplus < 0 or least is not None and least <= surplus


def _theta_at(an: SegmentAnalysis, rules, m):
    """Theta's candidates whose owner passes the surplus test at m on the
    upsilon j's of some entry of its row of the search tables, each with
    that test as a list over the same masks."""
    ix = an.index
    covers = an.cover_thresholds.covers
    live = []
    tests = {}
    for k, *cand in ix.theta:
        if k not in tests:
            need = an.level.profile.levels[an.level.index][ix.axis[k]]
            surplus = m[ix.axis[k]] - need
            width = len(ix.crossers[k])
            tests[k] = [covers(key >> width, surplus) for key in rules[k]]
        if any(tests[k]):
            live.append((k, *cand, tests[k]))
    return live


def _order_keys(an: SegmentAnalysis, before, m, theta):
    """The rule key of each k under one order, given as before masks, at m.

    Owner k pairs a with each b after a among theta's candidates when a
    qualifies, that is when the partners earlier than both k and a cover
    the block; b then gains k, and a does too unless k's line carries a
    step. The pairs are appended to theta[k].
    """
    ix = an.index
    covers = an.cover_thresholds.covers
    keys = [_rule_key(ix, k, b) for k, b in enumerate(before)]
    for k, a, a_bit, k_in_a, seconds in ix.theta:
        need = an.level.profile.levels[an.level.index][ix.axis[k]]
        js = _upsilon_js(ix, k, before[k] & before[a])
        if not covers(js, m[ix.axis[k]] - need):
            continue
        paired = False
        for b, k_in_b in seconds:
            if before[b] & a_bit:
                keys[b] |= k_in_b
                paired = True
                theta[k].append((a, b))
        if paired:
            keys[a] |= k_in_a
    return keys


class _Terms(dict):
    """Segment k's term in the H0 upper bound at m by rule key, each
    computed on first use."""

    def __init__(self, an: SegmentAnalysis, k, m):
        super().__init__()
        self.an, self.k, self.m = an, k, m

    def __missing__(self, key):
        an, k, m = self.an, self.k, self.m
        _, weight, gens = _lam_weight_generators(an, k, key, m)
        term = self[key] = _uncovered(
            an.level.profile.levels, an.level.index, an.interior[k], weight,
            gens, m)
        return term


class _LamRecords(dict):
    """Per (k, rule key), segment k's lam records ((position, r) pairs) and
    generators ((direction, knot, degree, extra shift) in line order, as
    dim_power_sum_in takes them), computed on first use."""

    def __init__(self, ix: SegmentIndex):
        super().__init__()
        self.ix = ix

    def __missing__(self, k_key):
        ix = self.ix
        k, key = k_key
        recs = tuple(c[1:3] for t, c in enumerate(ix.crossers[k])
                     if key >> t & 1)
        gens = {ix.line[p]: (rc, (0, 0)) for p, rc in recs}
        for j in _bits(key >> len(ix.crossers[k])):
            gens.setdefault(ix.line[ix.pos[j]], (ix.r[j], ix.dp[k]))
        direction = "s" if ix.axis[k] == 0 else "t"
        found = self[k_key] = (recs, tuple(
            (direction, ix.lines[q], r2 + 1, extra)
            for q, (r2, extra) in sorted(gens.items())))
        return found


def _lam_weight_generators(an: SegmentAnalysis, k, key, m):
    """Segment k's lam records, weight at m and generators from its rule
    key."""
    recs, gens = an.lam_records[k, key]
    return recs, segment_weight(an.interior[k], recs, m,
                                an.level.profile.levels), gens


def contribution_sets(an: SegmentAnalysis, ordering: SegmentOrdering,
                      m) -> ContributionSets:
    """The sets of one level under ordering at m. ordering.order must hold
    each interior segment number once; anything else raises ValueError."""
    order = ordering.order
    if not all(isinstance(k, int) for k in order) \
            or sorted(order) != list(range(len(an.interior))):
        raise ValueError(f"not an order of the segment numbers: {order!r}")
    before = _before(order)
    theta = [[] for _ in before]
    keys = _order_keys(an, before, m, theta)
    terms = tuple(_lam_weight_generators(an, k, key, m)
                  for k, key in enumerate(keys))
    return ContributionSets(an, ordering, tuple(m), terms, before,
                            tuple(map(tuple, theta)))


def _uncovered(levels, i, rho: MaxSegment, weight, gens, m) -> int:
    """The part of rho's block at m that its weight and generators leave
    uncovered: the segment's term in the H0 upper bound."""
    block = dim_M(levels, i, rho.e, m)
    return max(block - _covered(levels, i, rho, weight, gens, m), 0)


def _covered(levels, i, rho: MaxSegment, weight, gens, m) -> int:
    ax = _axis_index(rho.axis)
    dm = levels[min(i, len(levels) - 1)][ax]
    if weight >= m[ax] - dm + 1:
        return dim_M(levels, i, rho.e, m)
    if not gens:
        return 0
    return dim_power_sum_in(levels, i, gens, bd_sub(m, rho.e))


def dim_D_contribution(rho: MaxSegment, sets: ContributionSets) -> int:
    """Dimension of the covered part of one segment's block at sets.m."""
    an = sets.analysis
    _, weight, gens = sets.terms[an.index.of[rho.key]]
    return _covered(an.level.profile.levels, an.level.index, rho,
                    weight, gens, sets.m)


def h0_ideal_upper(sets: ContributionSets) -> int:
    """Upper bound for the H0 dimension of the level's line ideal complex
    under the ordering and at the bi-degree of sets."""
    an, m = sets.analysis, sets.m
    if an.level.h != 0:
        raise AssumptionViolated(
            f"level {an.level.index} has relative cycles (h = {an.level.h})")
    levels, i = an.level.profile.levels, an.level.index
    return sum(_uncovered(levels, i, rho, weight, gens, m)
               for rho, (_, weight, gens) in zip(an.interior, sets.terms))


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
            # power_grid multiplies each part by q^(r+1) of the other
            # segment's line and r, constant along a segment: a row scaling
            # times a column scaling by each block's own factor, so the
            # rank is unchanged
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
