"""The contribution rules written over segment keys, and the covering test
and the term formula written out in full, kept as the references that the
integer rules and the compiled records of `tmeshdim.segments` must
reproduce."""

from tmeshdim import dim_M, dim_power_sum_in, dim_shift


def crossings(an):
    """Per interior segment key, one (key, vertex, r, interior) per crossing
    segment, in position order, read from an.index: the crossing segment's
    key, the crossing vertex, its smoothness there and whether it is
    interior."""
    segs = an.segments
    out = {}
    for rho, cs in zip(an.interior, an.index.crossers):
        out[rho.key] = [
            (segs[p].key, (segs[p].line, rho.line) if rho.axis == "h"
             else (rho.line, segs[p].line), r, segs[p].interior)
            for _, p, r in cs]
    return out


def scanned_crossers(an):
    """Per interior segment, one (number, position, r) per segment of the
    other axis whose closed span meets its own, found by comparing the
    Fraction coordinates of every pair: SegmentIndex.crossers' reference."""
    segs, edge_r = an.segments, an.smoothness.edge_r
    of = {s.key: k for k, s in enumerate(an.interior)}
    out = []
    for rho in an.interior:
        cs = []
        for p, sig in enumerate(segs):
            if sig.axis == rho.axis or not (
                    sig.lo <= rho.line <= sig.hi
                    and rho.lo <= sig.line <= rho.hi):
                continue
            r = next((edge_r[e] for e in sig.edges
                      if e.lo <= rho.line <= e.hi and e in edge_r), sig.r)
            cs.append((of.get(sig.key, -1), p, r))
        out.append(tuple(cs))
    return out


def reference_sets(an, sequence, m):
    """gamma, upsilon, theta and lam under sequence, a sequence of segment
    keys, from the rules written over those keys: gamma maps crossers to r,
    upsilon and theta are sets of key pairs, lam maps segments to r."""
    level = an.level
    levels, i = level.profile.levels, level.index
    rank = {key: q for q, key in enumerate(sequence)}
    seg = {s.key: s for s in an.segments}
    crossed = crossings(an)
    cross = {k: [c[0] for c in crossed[k] if c[0] in rank] for k in rank}
    gamma = {k: {c[0]: c[2] for c in crossed[k]
                 if rank.get(c[0], -1) < rank[k]} for k in rank}
    lam = {k: dict(g) for k, g in gamma.items()}
    upsilon = {k: set() for k in rank}
    theta = {k: set() for k in rank}
    if i > level.profile.top:
        return gamma, upsilon, theta, lam
    for k in rank:
        ax = 0 if k[0] == "h" else 1
        surplus = m[ax] - levels[i][ax]
        upsilon[k] = {(k1, j) for k1 in rank
                      if k1 != k and k1[0] == k[0] and rank[k1] < rank[k]
                      and seg[k].r >= seg[k1].r
                      for j in cross[k1] if j in cross[k]}
        for a in cross[k]:
            js = {j for k1, j in upsilon[k] if rank[k1] < rank[a]}
            if sum(max(surplus - seg[j].r, 0) for j in js) <= surplus:
                continue
            for b in cross[k]:
                if rank[b] > rank[a] and seg[b].r >= seg[a].r:
                    theta[k].add((a, b))
                    lam[b][k] = seg[k].r
                    if seg[k].dp == (0, 0):
                        lam[a][k] = seg[k].r
    return gamma, upsilon, theta, lam


def keyed_terms(sets):
    """Per interior segment key, its lam records as (key, r) pairs in
    position order, its weight and its generators, read from sets.terms."""
    an = sets.analysis
    segs = an.segments
    return {key: (tuple((segs[p].key, rc) for p, rc in recs), weight, gens)
            for key, (recs, weight, gens) in zip(an.index.keys, sets.terms)}


def covers(rs, c):
    """The covering test on r values rs at c: lam records of smoothness rs
    against a block's cap c, or theta's j's of those r's at a surplus c."""
    return sum(max(c - r, 0) for r in rs) > c


def scanned_least_cover(rs):
    """The least c at or above 0 at which covers(rs, c) holds, or None, by a
    scan over the sorted r's: where the j least of them lie below c and the
    others do not, the test reads j * c - (their sum) > c."""
    rs = sorted(rs)
    below = 0
    for j, r in enumerate(rs, 1):
        below += r
        if j < 2:
            continue
        c = max(r + 1, below // (j - 1) + 1)
        if j == len(rs) or c <= rs[j]:
            return c
    return None


def closed_single(levels, i, gen, m):
    """What one generator (direction, knot, degree, extra shift) spans
    inside M(i) at m, box by box: its shifted box, less, below the top, the
    part of it inside L(i)."""
    direction, _, d, extra = gen
    dshift = (0, d) if direction == "t" else (d, 0)
    box = tuple(m[t] - levels[i - 1][t] - extra[t] - dshift[t]
                for t in (0, 1))
    val = dim_shift(box, (0, 0))
    if i < len(levels):
        lo = tuple(m[t] - levels[i][t] - dshift[t] for t in (0, 1))
        val -= dim_shift((min(box[0], lo[0]), min(box[1], lo[1])), (0, 0))
    return val


def reference_term(an, k, key, m):
    """Segment k's weight and term at rule key and m, worked out afresh from
    its lam records and generators: the block less what the weight (above
    the cap, all of it) or the generators cover, one generator box by box
    and several by graded's exact fallback."""
    levels, i = an.level.profile.levels, an.level.index
    rho = an.interior[k]
    ax = 0 if rho.axis == "h" else 1
    size = dim_M(levels, i, rho.e, m)
    cap = m[ax] - levels[min(i, len(levels) - 1)][ax]
    sub = (m[0] - rho.e[0], m[1] - rho.e[1])
    recs, gens = an.lam_records[k][key][:2]
    weight = sum(max(cap - r, 0) for _, r in recs)
    if covers([r for _, r in recs], cap):
        covered = size
    elif not gens:
        covered = 0
    elif len(gens) == 1:
        covered = closed_single(levels, i, gens[0], sub)
    else:
        covered = dim_power_sum_in(levels, i, list(gens), sub)
    return weight, max(size - covered, 0)
