"""Maximal segments per active level and the segment-side H0 upper bound.

A maximal segment is a maximal connected chain of collinear active edges.
Interior segments (point set disjoint from the domain boundary) index the
generators of the level's line ideal complex; the sets built here measure,
per segment and bi-degree, how much of its block is already covered by
crossing segments earlier in a chosen ordering, by segments meeting the
boundary, and by relations manufactured from parallel neighbors.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from typing import Optional

from .graded import _generator_key, dim_M, dim_power_sum_in
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
    key) segment k's lam records, generators, their _generator_key and the
    records' r values, and cover_thresholds, per mask of theta's j's the
    least surplus at which they cover a block. Their keys are rule keys and
    masks of the level's own segments, so they are bounded by the level, not
    by the number of bi-degrees asked, and they hold no reference back to
    the analysis.

    theta_tables, built only for the levels the exhaustive search takes,
    holds per owner of theta's candidates one such threshold per search
    mask: at most 2^EXHAUSTIVE_LIMIT each, none of them per bi-degree.
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
                    segs.append(self._mk(axis, line, run, step))
                    run = [e]
            segs.append(self._mk(axis, line, run, step))
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

    def _mk(self, axis, line, run, step):
        mesh = self.level.mesh
        interior = not any(p in mesh.boundary_vertices
                           for e in run for p in e.endpoints())
        rs = {self.smoothness.edge_r[e] for e in run
              if e in self.smoothness.edge_r}
        r = rs.pop() if len(rs) == 1 else None
        dp = (step[0], 0) if axis == "h" else (0, step[1])
        return MaxSegment(axis, line, run[0].lo, run[-1].hi,
                          tuple(run), interior, r, dp)

    def _r_at(self, seg, coord):
        for e in seg.edges:
            if e.lo <= coord <= e.hi and e in self.smoothness.edge_r:
                return self.smoothness.edge_r[e]
        return seg.r

    @cached_property
    def theta_tables(self):
        """Per owner k of theta's candidates, the threshold of the upsilon
        j's in k's search_tables row at each mask, and the least one that is
        not None (None when there is none)."""
        ix, tables = self.index, {}
        for k in {cand[0] for cand in ix.theta}:
            least = [self.cover_thresholds[key >> len(ix.crossers[k])]
                     for key in ix.search_tables[k]]
            tables[k] = least, min((t for t in least if t is not None),
                                   default=None)
        return tables

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
    crossers                per k: one (j, p, r) per crossing segment, j
                            its number (-1 off the interior), r its
                            smoothness at the crossing
    icross                  per k: its interior crossers' numbers, ascending
    common                  per k: (k1, shared) for each other same-axis k1,
                            ascending, whose interior crossers meet k's in
                            the non-empty bitmask shared; empty above the
                            top level, where no relations are manufactured
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
            tuple((self.of.get(rec.key, -1), pos[rec.key], rec.r)
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
                shared = sum(1 << j for j in self.icross[k1] if j in mine)
                if shared:
                    pairs.append((k1, shared))
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


def check_bidegree(m):
    """m as a pair of ints; ValueError unless both are integral."""
    a, b = m
    pair = int(a), int(b)
    if pair != (a, b):
        raise ValueError(f"bi-degree {m!r} is not a pair of integers")
    return pair


@dataclass(frozen=True)
class SegmentOrdering:
    """An order of a level's interior segment numbers, the first placed
    first. One that the exhaustive search made also carries the rule key it
    fixed for each segment (theta's bits included) and the _Terms it read,
    which contribution_sets reads at the search's analysis and m. They are
    not constructor arguments, so dataclasses.replace drops them, and they
    take no part in comparison or repr."""

    strategy: str
    order: tuple
    keys: Optional[tuple] = field(default=None, init=False, compare=False,
                                  repr=False)
    terms: Optional[list] = field(default=None, init=False, compare=False,
                                  repr=False)


def order_segments(an: SegmentAnalysis, strategy="auto",
                   m=None) -> SegmentOrdering:
    """Order the interior segments. greedy needs no bi-degree; exhaustive
    minimizes the resulting upper bound at m over all orders."""
    check_strategy(strategy)
    if m is not None:
        m = check_bidegree(m)
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
    # key, which many orders share, so each term is computed once per search,
    # and contribution_sets reads the best order's keys and terms from it.
    rules = an.index.search_tables
    terms = [_Terms(an, k, m) for k in range(n)]
    order, keys = _walk(rules, _theta_at(an, m), terms, _floors(rules, terms))
    found = SegmentOrdering("exhaustive", order)
    object.__setattr__(found, "keys", keys)
    object.__setattr__(found, "terms", terms)
    return found


def _floors(rules, terms):
    """Each segment's term at the largest rule key the walk can give it:
    the key with every other segment placed before it (see _walk)."""
    full = (1 << len(rules)) - 1
    return [t[row[full ^ 1 << x]]
            for x, (t, row) in enumerate(zip(terms, rules))]


def _walk(rules, theta_at, terms, floor):
    """The lex-first order of least total term, by a depth-first walk, and
    the rule key it fixed for each segment on that order, theta's bits
    included: a pair of tuples, the keys by segment number.

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
    A branch whose partial sum plus the floors of the segments not yet
    placed reaches the best total so far holds no better order, and is
    skipped. So the walk returns the order a zero floor gives whenever
    floor[x] is at most every term of x it reads, as _floors' floor is:
    rules[x][P] only gains bits as P grows, theta's bits are crossers'
    bits, which rules[x] holds at the full mask, and a term never grows
    when its key gains a bit. A lam bit does not lower the weight, and a weight above
    the cap covers the whole block; a generator bit adds a line, or
    replaces upsilon's (r[j] + 1, shifted by dp[k]) with the lam generator
    of the same crossing, whose span contains it. That needs an interior
    crosser's r at the crossing to be its segment's r, which holds as r is
    constant along a chain (build_smoothness).
    """
    n = len(rules)
    as_a = [[] for _ in range(n)]
    as_b = [[] for _ in range(n)]
    for k, a, _, k_in_a, seconds, least, surplus in theta_at:
        if k_in_a:
            as_a[a].append((sum(1 << b for b, _ in seconds), k_in_a,
                            least, surplus))
        for b, k_in_b in seconds:
            as_b[b].append((a, k_in_b, least, surplus))
    before = [0] * n      # before[x] for each x placed on the current path
    order = [0] * n       # order[d]: the segment at place d
    total = [sum(floor)] * n  # total[d]: terms ahead of d + floors of rest
    placed = [0] * n      # placed[d]: the mask of the segments ahead of d
    keyed = [0] * n       # keyed[x]: the key of x placed on the current path
    best = best_order = best_keys = None
    d = x = 0
    while True:
        done = placed[d]      # P
        while x < n and done >> x & 1:
            x += 1
        if x == n:
            if d == 0:
                return best_order, best_keys
            d -= 1
            x = order[d] + 1
            continue
        key = rules[x][done]
        for a, k_in_b, least, surplus in as_b[x]:
            if done >> a & 1 and _reaches(least[before[a]], surplus):
                key |= k_in_b
        for b_bits, k_in_a, least, surplus in as_a[x]:
            if b_bits & ~done and _reaches(least[done], surplus):
                key |= k_in_a
        partial = total[d] - floor[x] + terms[x][key]
        if best is not None and partial >= best:
            x += 1
        elif d == n - 1:
            order[d], keyed[x] = x, key
            best, best_order, best_keys = partial, tuple(order), tuple(keyed)
            x += 1
        else:
            order[d], before[x], keyed[x] = x, done, key
            d += 1
            total[d], placed[d] = partial, done | 1 << x
            x = 0


@dataclass
class ContributionSets:
    """One level's rule records under an ordering at bi-degree m.

    terms[k] holds interior segment k's lam records ((position, r) pairs),
    weight and generators (as dim_power_sum_in takes them), and h0_terms[k]
    its term in the H0 upper bound: the part of its block that they leave
    uncovered. before holds the order's before masks.
    """

    analysis: SegmentAnalysis
    ordering: SegmentOrdering
    m: tuple
    terms: tuple
    h0_terms: tuple
    before: list


def _axis_index(axis: str) -> int:
    return 0 if axis == "h" else 1


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
    r[k] >= r[k1]; upsilon pairs k1 with each j in their shared mask."""
    r = ix.r
    return [c for c in ix.common[k] if before >> c[0] & 1 and r[k] >= r[c[0]]]


def _upsilon_js(ix: SegmentIndex, k, before):
    """The mask of upsilon's j's."""
    js = 0
    for _, shared in _upsilon(ix, k, before):
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


def _reaches(least, surplus):
    """Theta's covering test at surplus, given the least surplus at or above
    0 at which it holds (None when it holds at none)."""
    return surplus < 0 or least is not None and least <= surplus


def _theta_at(an: SegmentAnalysis, m):
    """Theta's candidates whose owner passes the surplus test at m at some
    search mask, each with the owner's row of theta_tables and its surplus
    at m."""
    ix = an.index
    live = []
    for k, *cand in ix.theta:
        least, lowest = an.theta_tables[k]
        need = an.level.profile.levels[an.level.index][ix.axis[k]]
        surplus = m[ix.axis[k]] - need
        if _reaches(lowest, surplus):
            live.append((k, *cand, least, surplus))
    return live


def _order_keys(an: SegmentAnalysis, before, m):
    """The rule key of each k under one order, given as before masks, at m.

    Owner k pairs a with each b after a among theta's candidates when a
    qualifies, that is when the partners earlier than both k and a cover
    the block; b then gains k, and a does too unless k's line carries a
    step.
    """
    ix = an.index
    thresholds = an.cover_thresholds
    keys = [_rule_key(ix, k, b) for k, b in enumerate(before)]
    for k, a, a_bit, k_in_a, seconds in ix.theta:
        need = an.level.profile.levels[an.level.index][ix.axis[k]]
        js = _upsilon_js(ix, k, before[k] & before[a])
        if not _reaches(thresholds[js], m[ix.axis[k]] - need):
            continue
        paired = False
        for b, k_in_b in seconds:
            if before[b] & a_bit:
                keys[b] |= k_in_b
                paired = True
        if paired:
            keys[a] |= k_in_a
    return keys


class _Terms(dict):
    """Segment k's term in the H0 upper bound at m by rule key, each
    computed on first use; its block is computed once."""

    def __init__(self, an: SegmentAnalysis, k, m):
        super().__init__()
        self.an, self.k, self.m = an, k, m
        self.levels, self.i = an.level.profile.levels, an.level.index
        self.block = _block(self.levels, self.i, an.interior[k], m)

    def __missing__(self, key):
        term = self[key] = _term(self.levels, self.i,
                                 self.an.lam_records[self.k, key], self.block)
        return term


class _LamRecords(dict):
    """Per (k, rule key), segment k's lam records ((position, r) pairs),
    generators ((direction, knot, degree, extra shift) in line order, as
    dim_power_sum_in takes them), their _generator_key and the records' r
    values, computed on first use."""

    def __init__(self, ix: SegmentIndex):
        super().__init__()
        self.ix = ix

    def __missing__(self, k_key):
        ix = self.ix
        k, key = k_key
        recs = tuple(c[1:] for t, c in enumerate(ix.crossers[k])
                     if key >> t & 1)
        by_line = {ix.line[p]: (rc, (0, 0)) for p, rc in recs}
        for j in _bits(key >> len(ix.crossers[k])):
            by_line.setdefault(ix.line[ix.pos[j]], (ix.r[j], ix.dp[k]))
        direction = "s" if ix.axis[k] == 0 else "t"
        gens = tuple((direction, ix.lines[q], r2 + 1, extra)
                     for q, (r2, extra) in sorted(by_line.items()))
        found = self[k_key] = (recs, gens, _generator_key(gens),
                               tuple(rc for _, rc in recs))
        return found


def contribution_sets(an: SegmentAnalysis, ordering: SegmentOrdering,
                      m) -> ContributionSets:
    """The sets of one level under ordering at m. ordering.order must hold
    each interior segment number once; anything else raises ValueError. The
    rule keys and terms are the search's when it made ordering on an at m,
    else _order_keys' at the order's own masks and fresh _Terms'."""
    order = ordering.order
    if not all(isinstance(k, int) for k in order) \
            or sorted(order) != list(range(len(an.interior))):
        raise ValueError(f"not an order of the segment numbers: {order!r}")
    m = check_bidegree(m)
    before = _before(order)
    terms = ordering.terms
    if terms and terms[0].an is an and terms[0].m == m:
        keys = ordering.keys
    else:
        keys = _order_keys(an, before, m)
        terms = [_Terms(an, k, m) for k in range(len(order))]
    records, h0_terms = [], []
    for k, key in enumerate(keys):
        recs, gens, _, rs = an.lam_records[k, key]
        records.append((recs, _weight(rs, terms[k].block[1]), gens))
        h0_terms.append(terms[k][key])
    return ContributionSets(an, ordering, m, tuple(records), tuple(h0_terms),
                            before)


def _block(levels, i, rho: MaxSegment, m):
    """rho's block at m, the largest weight that leaves it uncovered and m
    less rho.e: all that _term needs of rho and m."""
    ax = _axis_index(rho.axis)
    return (dim_M(levels, i, rho.e, m),
            m[ax] - levels[min(i, len(levels) - 1)][ax], bd_sub(m, rho.e))


def _weight(rs, cap) -> int:
    """The weight of lam records of smoothness rs against a block's cap."""
    return sum([cap - r for r in rs if r < cap])


def _term(levels, i, records, block) -> int:
    """A segment's term in the H0 upper bound from its lam_records entry and
    its block: 0 when its weight exceeds the cap and so covers the whole
    block, else the block less what its generators span in it."""
    size, cap, sub = block
    _, _, gen_key, rs = records
    if _weight(rs, cap) > cap:
        return 0
    if not gen_key:
        return size
    return size - dim_power_sum_in(levels, i, gen_key, sub)


def h0_ideal_upper(sets: ContributionSets) -> int:
    """Upper bound for the H0 dimension of the level's line ideal complex
    under the ordering and at the bi-degree of sets: the sum of its
    segments' terms."""
    an = sets.analysis
    if an.level.h != 0:
        raise AssumptionViolated(
            f"level {an.level.index} has relative cycles (h = {an.level.h})")
    return sum(sets.h0_terms)


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
