"""The contribution rules written over segment keys, kept as the reference
that the integer rules of `tmeshdim.segments` must reproduce."""


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
