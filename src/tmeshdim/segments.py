"""Maximal segments per active level and the segment-side H0 upper bound.

A maximal segment is a maximal connected chain of collinear active edges.
Interior segments (point set disjoint from the domain boundary) index the
generators of the level's line ideal complex; the sets built here measure,
per segment and bi-degree, how much of its block is already covered by
crossing segments earlier in a chosen ordering, by segments meeting the
boundary, and by relations manufactured from parallel neighbors.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .graded import (_generator_key, box_sum, dim_M_terms, dim_power_sum_in,
                     single_power_terms)
from .levels import ActiveLevel, AssumptionViolated
from .mesh import bd_sub, check_bidegree, components


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


class SegmentAnalysis:
    """Maximal segments of one level, sorted by key, plus their crossing
    structure, which only index holds (SegmentIndex, in integer form); the
    contribution rules, the ordering search and oracle.h0_ideal_oracle read it.

    An analysis serves every bi-degree. An order's rule keys are made in
    two phases: its plan (_plan: before masks and the keys before theta),
    into which no bi-degree enters, then theta's bits at m (_with_theta).
    Besides the greedy order and its plan, the search tables (every key
    before theta, for the search) and walk_theta (theta's candidates filed
    per segment with each owner's covering threshold at every search mask,
    so that a theta test at m is one list read and one int compare), each
    made on first use, it keeps need, the level deficit that caps and
    surpluses are taken from, blocks, per interior segment what _block
    reads at m (dim_M at its e as box terms, its axis, need on that axis
    and its e), and two records into which no bi-degree enters, each entry
    made when it is first asked for: lam_records, per (k, rule key) segment
    k's lam records, generators, their _generator_key, the records' r
    values, their least covering cap and one generator's span as box terms,
    and cover_thresholds, per mask of theta's j's the least surplus at
    which they cover a block. Their keys are rule keys and masks of the
    level's own segments, so they are bounded by the level, not by the
    number of bi-degrees asked, and they hold no reference back to the
    analysis. A search keeps no table of its own.
    """

    def __init__(self, level: ActiveLevel, smoothness):
        self.level = level
        self.smoothness = smoothness
        profile = level.profile
        i = level.index
        step = profile.steps[i - 1] if i <= profile.top else (0, 0)

        # a chain's edges join at shared end vertices, keyed by (axis,
        # vertex); build_tmesh gives its edges the mesh's own Vertex
        # objects, whose hash is kept, so the lookups hash no Fraction. A
        # chain starts at an edge whose lo end is no same-axis edge's hi end
        after, his = {}, set()
        for e in level.edges:
            lo, hi = e.endpoints()
            after[e.axis, lo] = e
            his.add((e.axis, hi))
        segs = []
        for e in level.edges:
            if (e.axis, e.endpoints()[0]) in his:
                continue
            run = [e]
            while (e := after.get((e.axis, e.endpoints()[1]))) is not None:
                run.append(e)
            segs.append(self._mk(run, step))
        # level.edges follows mesh.edges, so on a mesh build_tmesh made the
        # chains start in key order; on one built by hand, this sort gives it
        segs.sort(key=lambda s: s.key)
        self.segments = segs
        self.interior = tuple(s for s in segs if s.interior)
        self.index = SegmentIndex(self)
        self.need = profile.levels[min(i, profile.top)]
        self.blocks = tuple(
            (dim_M_terms(profile.levels, i, rho.e), ax, self.need[ax], rho.e)
            for rho, ax in zip(self.interior, self.index.axis))
        self.lam_records = _LamRecords(self.index, segs, profile.levels, i)
        self.cover_thresholds = _CoverThresholds(self.index)

    def _mk(self, run, step):
        mesh = self.level.mesh
        axis, line = run[0].axis, run[0].line
        interior = not any(p in mesh.boundary_vertices
                           for e in run for p in e.endpoints())
        rs = {self.smoothness.edge_r[e] for e in run
              if e in self.smoothness.edge_r}
        r = rs.pop() if len(rs) == 1 else None
        dp = (step[0], 0) if axis == "h" else (0, step[1])
        return MaxSegment(axis, line, run[0].lo, run[-1].hi,
                          tuple(run), interior, r, dp)

    @cached_property
    def greedy_order(self):
        """The greedy order's segment numbers; it does not depend on the
        bi-degree."""
        ix = self.index
        seq = []
        for comp in components(ix.icross):
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

    @cached_property
    def greedy_plan(self):
        """_plan of the greedy order."""
        return _plan(self, self.greedy_order)

    @cached_property
    def walk_theta(self):
        """index.theta's candidates as the walk reads them, made on the
        first search and filed per interior segment x: as_a[x], one
        (b mask, k_in_a, row) per candidate whose first segment a is x and
        whose k_in_a is not 0, and as_b[x], one (a, k_in_b, row) per
        candidate with x among its b's. row is owner k's covering threshold
        at every search mask P, cover_thresholds[search_tables[k][P] >>
        len(crossers[k])], with never, which exceeds every threshold of the
        level, for None; the candidates of one owner share it. The triple
        (as_a, as_b, never); _live_theta reads it at m."""
        ix, least = self.index, self.cover_thresholds
        n = len(ix.keys)
        # a threshold is at most its j's r sum plus 1 (_least_cover)
        never = sum(ix.r) + 2
        rows = {}
        as_a = [[] for _ in range(n)]
        as_b = [[] for _ in range(n)]
        for k, a, _, k_in_a, seconds in ix.theta:
            if k not in rows:
                shift = len(ix.crossers[k])
                rows[k] = [never if t is None else t for t in
                           (least[key >> shift] for key in ix.search_tables[k])]
            row = rows[k]
            if k_in_a:
                as_a[a].append((sum(1 << b for b, _ in seconds), k_in_a, row))
            for b, k_in_b in seconds:
                as_b[b].append((a, k_in_b, row))
        return as_a, as_b, never


class SegmentIndex:
    """One level's crossing structure with small ints in place of keys.

    Interior segment k is an.interior[k], so the numbers follow the sorted
    keys. Every segment also has a position p in an.segments (again the key
    order). Two edges of the mesh meet at most in a shared vertex, so two
    segments of the level cross exactly at a vertex that ends an edge of
    each: k's crossers are read off mesh.vertex_edges at the ends of its
    edges, and the rules hash and compare ints, never Fractions.

    keys, axis, r, dp, pos  per k: the key, 0 for "h" and 1 for "v", the
                            smoothness, the step shift and the position
    of                      key -> k
    crossers                per k: one (j, p, r) per segment of the other
                            axis whose closed span meets k's, in position
                            order: j its number (-1 off the interior), p
                            its position, r its smoothness at the crossing
                            (that of its edges there, which are interior
                            and which build_smoothness gives one r)
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
        self.axis = [_axis_index(s.axis) for s in interior]
        self.r = [s.r for s in interior]
        self.dp = [s.dp for s in interior]
        self.pos = [p for p, s in enumerate(segs) if s.interior]
        number = {p: k for k, p in enumerate(self.pos)}
        at = {e: p for p, s in enumerate(segs) for e in s.edges}
        vertex_edges = an.level.mesh.vertex_edges
        edge_r = an.smoothness.edge_r
        self.crossers = []
        for rho in interior:
            # the segments of the active edges of the other axis at rho's
            # ends, with their r there; rho is interior, so are its
            # vertices and every edge at them
            met = {}
            for v in (rho.edges[0].endpoints()[0],
                      *(e.endpoints()[1] for e in rho.edges)):
                for e in vertex_edges[v]:
                    if e.axis != rho.axis and (p := at.get(e)) is not None:
                        met[p] = edge_r[e]
            self.crossers.append(tuple((number.get(p, -1), p, r)
                                       for p, r in sorted(met.items())))
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


@dataclass(frozen=True)
class SegmentOrdering:
    """An order of a level's interior segment numbers, the first placed
    first. One that order_segments made also carries what contribution_sets
    reads at the analysis it was made on. A greedy one, and a searched one
    of at most one segment, whose only order is the greedy one, carries
    plan, the analysis and its greedy_plan; a searched one of more carries
    keys, the rule key the search fixed for each segment (theta's bits
    included), and terms, the _Terms it read at its m. They are not
    constructor arguments, so dataclasses.replace drops them, and they take
    no part in comparison or repr."""

    strategy: str
    order: tuple
    plan: Optional[tuple] = field(default=None, init=False, compare=False,
                                  repr=False)
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
        return _greedy(an, "greedy")
    if n > EXHAUSTIVE_LIMIT:
        raise TooManyForExhaustive(
            f"{n} interior segments exceed the exhaustive limit {EXHAUSTIVE_LIMIT}")
    if m is None:
        raise ValueError("exhaustive ordering needs a bi-degree")
    if n <= 1:
        return _greedy(an, "exhaustive")  # the only order
    # The objective is h0_ideal_upper. The rules are looked up in tables
    # indexed by before masks, and a segment's term depends only on its rule
    # key, which many orders share, so each term is computed once per search,
    # and contribution_sets reads the best order's keys and terms from it.
    rules = an.index.search_tables
    terms = [_Terms(an, k, m) for k in range(n)]
    order, keys = _walk(an, m, terms, _floors(rules, terms))
    found = SegmentOrdering("exhaustive", order)
    object.__setattr__(found, "keys", keys)
    object.__setattr__(found, "terms", terms)
    return found


def _greedy(an: SegmentAnalysis, strategy):
    """The analysis's greedy order under strategy's name, carrying its
    greedy_plan."""
    found = SegmentOrdering(strategy, an.greedy_order)
    object.__setattr__(found, "plan", (an, an.greedy_plan))
    return found


def _floors(rules, terms):
    """Each segment's term at the largest rule key the walk can give it:
    the key with every other segment placed before it (see _walk)."""
    full = (1 << len(rules)) - 1
    return [t[row[full ^ 1 << x]]
            for x, (t, row) in enumerate(zip(terms, rules))]


def _walk(an: SegmentAnalysis, m, terms, floor):
    """The lex-first order of least total term at m, by a depth-first walk, and
    the rule key it fixed for each segment on that order, theta's bits
    included: a pair of tuples, the keys by segment number.

    The walk places segment numbers in increasing order, so it meets the
    orders in lex order. A segment's rule key is fixed when it is placed
    after the segments of mask P: rules[x][P], the key _plan gives x on
    such an order, plus theta's bits, which _with_theta would set as
    follows. Each such bit is the bit of owner k among x's crossers, which
    gamma has set already when k is in P; when k comes after x,
    before[k] & before[a] is before[a].
      - As b of owner k and first a: the bit of k when a is in P and a
        qualifies at its own before mask.
      - As a: the bit of k when some second b is not in P and a qualifies
        at P.
    It reads the walk_theta entries that _live_theta keeps at m, so each of
    these tests is one threshold read off k's row and compared with the
    surplus.
    A branch whose partial sum plus the floors of the segments not yet
    placed reaches the best total so far holds no better order, and is
    skipped, and the walk stops at the first order whose total is the sum
    of the floors, which no order undercuts. So the walk returns the order
    a zero floor gives whenever floor[x] is at most every term of x it
    reads, as _floors' floor is:
    rules[x][P] only gains bits as P grows, theta's bits are crossers'
    bits, which rules[x] holds at the full mask, and a term never grows
    when its key gains a bit. A lam bit does not lower the weight, and a weight above
    the cap covers the whole block; a generator bit adds a line, or
    replaces upsilon's (r[j] + 1, shifted by dp[k]) with the lam generator
    of the same crossing, whose span contains it. That needs an interior
    crosser's r at the crossing to be its segment's r, which holds as r is
    constant along a chain (build_smoothness).
    """
    rules = an.index.search_tables
    as_a, as_b, surplus = _live_theta(an, m)
    n = len(rules)
    low = sum(floor)
    before = [0] * n      # before[x] for each x placed on the current path
    order = [0] * n       # order[d]: the segment at place d
    total = [low] * n     # total[d]: terms ahead of d + floors of rest
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
        s = surplus[x]
        for a, k_in_b, row in as_b[x]:
            if done >> a & 1 and row[before[a]] <= s:
                key |= k_in_b
        for b_bits, k_in_a, row in as_a[x]:
            if b_bits & ~done and row[done] <= s:
                key |= k_in_a
        partial = total[d] - floor[x] + terms[x][key]
        if best is not None and partial >= best:
            x += 1
        elif d == n - 1:
            order[d], keyed[x] = x, key
            best, best_order, best_keys = partial, tuple(order), tuple(keyed)
            if best == low:
                return best_order, best_keys
            x += 1
        else:
            order[d], before[x], keyed[x] = x, done, key
            d += 1
            total[d], placed[d] = partial, done | 1 << x
            x = 0


def _live_theta(an: SegmentAnalysis, m):
    """walk_theta at m: (as_a, as_b, surplus), the entries filed under each
    x whose owner passes the surplus test at m at some search mask, and
    surplus[x] the surplus, on the axis of the owners filed under x, that
    a threshold in their rows must not exceed.

    The owners filed under x cross x, so their axis is the other one. A
    negative surplus reaches at every threshold and reads never; any other
    reads at most never - 1, so a None threshold never passes. Upsilon's
    j's only gain bits as P grows and a threshold only falls as they do,
    so an owner's least threshold is the full mask's, at the end of its
    row."""
    as_a, as_b, never = an.walk_theta
    live = [never if s < 0 else min(s, never - 1)
            for s in (m[0] - an.need[0], m[1] - an.need[1])]
    surplus = [live[1 - ax] for ax in an.index.axis]
    return ([[e for e in es if e[2][-1] <= s] for es, s in zip(as_a, surplus)],
            [[e for e in es if e[2][-1] <= s] for es, s in zip(as_b, surplus)],
            surplus)


@dataclass
class ContributionSets:
    """One level's rule records under an ordering at bi-degree m.

    terms[k] holds interior segment k's lam records ((position, r) pairs),
    weight and generators (as dim_power_sum_in takes them), and h0_terms[k]
    its term in the H0 upper bound: the part of its block that they leave
    uncovered. before holds the order's before masks, in a list of its own.
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


def _least_cover(rs):
    """The least c at or above 0 at which r values rs cover a block,
    _weight(rs, c) > c, or None: the weight test of lam records against a
    block's cap c, and theta's test on its j's r values at a surplus c.

    It holds at every c below 0. At or above 0 it needs two r's below c,
    since every r is at least 0; then raising c by 1 raises the sum by at
    least 2, so from the least c on it holds at every c. With two r's or
    more it holds at their sum plus 1, where each gives at least 1 more than
    its share, so the least c is bisected on 0 up to there: O(log r) tests.
    """
    if len(rs) < 2:
        return None
    return bisect_left(range(sum(rs) + 2), True,
                       key=lambda c: _weight(rs, c) > c)


class _CoverThresholds(dict):
    """Per mask js of theta's j's, the least surplus at which they cover a
    block (_least_cover of their r's), computed on first use."""

    def __init__(self, ix: SegmentIndex):
        super().__init__()
        self.ix = ix

    def __missing__(self, js):
        found = self[js] = _least_cover([self.ix.r[j] for j in _bits(js)])
        return found


def _reaches(least, c):
    """The covering test at c, given _least_cover's value."""
    return c < 0 or least is not None and least <= c


def _plan(an: SegmentAnalysis, order):
    """The first phase of an order's rule keys, into which no bi-degree
    enters: its before masks and each segment's rule key before theta
    (_rule_key), a pair of tuples by segment number."""
    before = tuple(_before(order))
    return before, tuple(_rule_key(an.index, k, b)
                         for k, b in enumerate(before))


def _with_theta(an: SegmentAnalysis, plan, m):
    """The second phase: the rule key of each k under the order of plan at
    m, theta's bits added to the plan's keys.

    Owner k pairs a with each b after a among theta's candidates when a
    qualifies, that is when the partners earlier than both k and a cover
    the block; b then gains k, and a does too unless k's line carries a
    step.
    """
    ix = an.index
    thresholds = an.cover_thresholds
    before, keys = plan[0], list(plan[1])
    surplus = m[0] - an.need[0], m[1] - an.need[1]
    for k, a, a_bit, k_in_a, seconds in ix.theta:
        js = _upsilon_js(ix, k, before[k] & before[a])
        if not _reaches(thresholds[js], surplus[ix.axis[k]]):
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
        self.block = _block(an, k, m)

    def __missing__(self, key):
        term = self[key] = _term(self.levels, self.i,
                                 self.an.lam_records[self.k, key], self.block)
        return term


class _LamRecords(dict):
    """Per (k, rule key), segment k's lam records ((position, r) pairs),
    generators ((direction, knot, degree, extra shift) in line order, as
    dim_power_sum_in takes them), their _generator_key, the records' r
    values, their least covering cap (_least_cover) and, for exactly one
    generator, its span in the level's quotient as box terms
    (graded.single_power_terms; else None), computed on first use.

    Generators are keyed by crosser position: k's crossers lie one to a
    line, all of the other axis, so their position order is line order."""

    def __init__(self, ix: SegmentIndex, segments, levels, i):
        super().__init__()
        self.ix, self.segments, self.levels, self.i = ix, segments, levels, i

    def __missing__(self, k_key):
        ix = self.ix
        k, key = k_key
        recs = tuple(c[1:] for t, c in enumerate(ix.crossers[k])
                     if key >> t & 1)
        by_pos = {p: (rc, (0, 0)) for p, rc in recs}
        for j in _bits(key >> len(ix.crossers[k])):
            by_pos.setdefault(ix.pos[j], (ix.r[j], ix.dp[k]))
        direction = "s" if ix.axis[k] == 0 else "t"
        gens = tuple((direction, self.segments[p].line, r2 + 1, extra)
                     for p, (r2, extra) in sorted(by_pos.items()))
        gen_key = _generator_key(gens)
        rs = tuple(rc for _, rc in recs)
        found = self[k_key] = (
            recs, gens, gen_key, rs, _least_cover(rs),
            single_power_terms(self.levels, self.i, gen_key[0])
            if len(gen_key) == 1 else None)
        return found


def contribution_sets(an: SegmentAnalysis, ordering: SegmentOrdering,
                      m) -> ContributionSets:
    """The sets of one level under ordering at m. ordering.order must hold
    each interior segment number once; anything else raises ValueError,
    and an order that order_segments made on an, whose plan or terms say
    so, is taken as checked. The rule keys are the search's when it made
    ordering on an at m, else the order's plan at m (_with_theta): the
    greedy_plan ordering carries when it was made on an, else one _plan
    builds on the call. Each segment's weight is read from its lam_records
    entry and its block; its block and term are the search's when the keys
    are, else they are worked out here."""
    order, terms, plan = ordering.order, ordering.terms, ordering.plan
    made = terms and terms[0].an is an or plan and plan[0] is an
    if not made and (not all(isinstance(k, int) for k in order)
                     or sorted(order) != list(range(len(an.interior)))):
        raise ValueError(f"not an order of the segment numbers: {order!r}")
    m = check_bidegree(m)
    searched = terms and terms[0].an is an and terms[0].m == m
    if searched:
        before, keys = _before(order), ordering.keys
    else:
        plan = plan[1] if plan and plan[0] is an else _plan(an, order)
        before, keys = list(plan[0]), _with_theta(an, plan, m)
    levels, i = an.level.profile.levels, an.level.index
    records, h0_terms = [], []
    for k, key in enumerate(keys):
        found = an.lam_records[k, key]
        recs, gens, _, rs, _, _ = found
        if searched:
            block, term = terms[k].block, terms[k][key]
        else:
            block = _block(an, k, m)
            term = _term(levels, i, found, block)
        records.append((recs, _weight(rs, block[1]), gens))
        h0_terms.append(term)
    return ContributionSets(an, ordering, m, tuple(records), tuple(h0_terms),
                            before)


def _block(an: SegmentAnalysis, k, m):
    """Segment k's block at m, the largest weight that leaves it uncovered
    and m less its e: all that _term needs of the segment and m."""
    terms, ax, need, e = an.blocks[k]
    return box_sum(terms, m), m[ax] - need, bd_sub(m, e)


def _weight(rs, cap) -> int:
    """The weight of lam records of smoothness rs against a block's cap."""
    return sum([cap - r for r in rs if r < cap])


def _term(levels, i, records, block) -> int:
    """A segment's term in the H0 upper bound from its lam_records entry and
    its block: 0 when its weight exceeds the cap and so covers the whole
    block, else the block less what its generators span in it."""
    size, cap, sub = block
    _, _, gen_key, _, least, single = records
    if _reaches(least, cap):
        return 0
    if single:
        return size - box_sum(single, sub)
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
