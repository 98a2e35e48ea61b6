"""Independent exact linear-algebra oracles.

oracle_spline_dim assembles the raw smoothness constraints of a spline space,
as remainder_rows blocks on lines translated so that the busiest one of
each axis is at 0, and counts solutions by exact rank, with no use of the
combinatorial machinery; h0_ideal_oracle does the same for one level's line
ideal complex.
span_dim / span_quotient_dim measure subspaces spanned by polynomial
generators in the monomial basis. All exist to cross-check the closed
formulas, so they stay deliberately naive. sliced_quotient_dim is
the exception: it serves the bounds, and span_quotient_dim checks it.
"""

from collections import Counter
from fractions import Fraction
from math import comb

from .linalg import rank_sparse
from .mesh import TMesh, bd_sub, check_bidegree


def _box(m):
    return max(m[0] + 1, 0) * max(m[1] + 1, 0)


def span_dim(generators, m) -> int:
    """Dimension of the span of {g * monomial} inside the bi-degree m box.

    generators is a list of (grid, bideg) pairs: grid maps exponent pairs to
    integer coefficients, bideg bounds the multiplier box to m - bideg; a
    Fraction coefficient raises TypeError.
    """
    return span_quotient_dim(generators, m, None)


def span_quotient_dim(generators, ambient, lbox) -> int:
    """Dimension of a generated subspace modulo a low-exponent sub-box.

    Rows are generator translates inside the ambient box together with all
    monomials of the sub-box; the result is rank minus the sub-box size.
    lbox = None means no quotient; a Fraction coefficient raises TypeError.
    """
    if ambient[0] < 0 or ambient[1] < 0:
        return 0
    width = ambient[1] + 1

    rows = []
    for grid, bideg in generators:
        for a in range(ambient[0] - bideg[0] + 1):
            for b in range(ambient[1] - bideg[1] + 1):
                rows.append({(a + es) * width + (b + et): c
                             for (es, et), c in grid.items()})
    sub = 0
    if lbox is not None:
        sub = _box(lbox)
        for a in range(min(lbox[0], ambient[0]) + 1):
            for b in range(min(lbox[1], ambient[1]) + 1):
                rows.append({a * width + b: 1})
    return rank_sparse(rows) - sub


def sliced_quotient_dim(generators, ambient, lbox) -> int:
    """span_quotient_dim for generators that are each a polynomial in one
    and the same variable. It serves the bounds (graded's exact fallback),
    and span_quotient_dim checks it.

    The sub-box's monomials are the translates of 1 across it. Say the
    variable is the second: a generator translated by (a, b) has all its
    monomials at first exponent a, so the matrix span_quotient_dim ranks
    is block-diagonal in the first exponent. Slice a holds the generators
    with a <= ambient - bideg in the first exponent, each translated along
    the second. Slices of the same generators have equal rank, so each is
    ranked once, on at most ambient + 1 columns, and counted.
    """
    if ambient[0] < 0 or ambient[1] < 0:
        return 0
    if any(es for grid, _ in generators for es, _ in grid):
        generators = [({(et, es): c for (es, et), c in grid.items()},
                        bideg[::-1]) for grid, bideg in generators]
        ambient, lbox = ambient[::-1], lbox and lbox[::-1]
    if lbox is not None:
        generators = [*generators, ({(0, 0): 1}, (
            max(ambient[0] - lbox[0], 0), max(ambient[1] - lbox[1], 0)))]
    slices = Counter(tuple(g for g, (_, bideg) in enumerate(generators)
                           if a <= ambient[0] - bideg[0])
                     for a in range(ambient[0] + 1))
    rank = 0
    for active, count in slices.items():
        rows = [{b + et: c for (_, et), c in generators[g][0].items()}
                for g in active
                for b in range(ambient[1] - generators[g][1][1] + 1)]
        rank += count * rank_sparse(rows)
    return rank - (0 if lbox is None else _box(lbox))


def power_grid(direction, knot, degree, extra=(0, 0)):
    """Coefficient grid and effective bi-degree of (q x - p)^degree u^extra
    for the knot p/q: q^degree times (x - knot)^degree, in integers."""
    p, q = Fraction(knot).as_integer_ratio()
    grid = {}
    for k in range(degree + 1):
        c = comb(degree, k) * q ** k * (-p) ** (degree - k)
        if c:
            grid[(0, k) if direction == "t" else (k, 0)] = c
    bideg = (extra[0], degree + extra[1]) if direction == "t" \
        else (degree + extra[0], extra[1])
    return grid, bideg


def remainder_rows(p, q, deg, r):
    """Rows j = 0..r of "the remainder of d mod (x - p/q)^(r+1) is zero",
    d of degree deg in x and r <= deg, in the coefficients of x^a.

    The remainder of x^a has coefficient j equal to 1 at a = j, to 0 for
    j < a <= r, and to (-1)^(r-j) C(a, j) C(a-j-1, r-j) (p/q)^(a-j) for
    a > r. Row j, scaled by q^(deg-j) to integers, is returned as
    (q^(deg-j), [its entries at a = r+1..deg]), none of them zero; the
    list is empty when p = 0. The rows are the Taylor rows of orders 0..r
    times the inverse of their unit upper-triangular leading block, so the
    two span the same space.
    """
    p_pow = [p ** k for k in range(deg + 1)]
    q_pow = [q ** k for k in range(deg + 1)]
    return [(q_pow[deg - j],
             [(-1) ** (r - j) * comb(a, j) * comb(a - j - 1, r - j)
              * p_pow[a - j] * q_pow[deg - a]
              for a in range(r + 1, deg + 1)] if p else [])
            for j in range(r + 1)]


def oracle_spline_dim(mesh: TMesh, profile, smoothness, m) -> int:
    """Spline space dimension by brute-force constraint rank.

    Unknowns are the monomial coefficients of each face's polynomial piece,
    in coordinates translated so that, in each axis, the line with the most
    interior edges (the greatest of them on a tie) sits at 0; a translation
    maps each piece's box onto itself, so the dimension is unchanged. Each
    interior edge asks that the piece difference across its line vanish to
    order min(r, deg), deg the highest power of the expansion variable: one
    remainder_rows block per layer of the other variable, whose rows on the
    line at 0 hold one entry per side. Rows repeated by edge subdivision
    are deduplicated by face pair.
    """
    m = check_bidegree(m)
    index = {}
    pieces = []
    total = 0
    for k, f in enumerate(mesh.faces):
        index[f] = k
        box = bd_sub(m, profile.face_deficit[f])
        if box[0] < 0 or box[1] < 0:
            pieces.append(None)
            continue
        pieces.append((total, box))
        total += (box[0] + 1) * (box[1] + 1)

    # per axis, the line with the most interior edges, the greatest on a
    # tie, is sorted last; then each line's translated (p, q)
    on_line = Counter((e.axis, e.line) for e in mesh.interior_edges)
    shift = {axis: line for (axis, line), _ in sorted(
        on_line.items(), key=lambda kv: (kv[1], kv[0][1]))}
    knots = {(axis, line): (line - shift[axis]).as_integer_ratio()
             for axis, line in on_line}
    rows = []
    seen = set()
    for e in mesh.interior_edges:
        # two faces meet in at most one segment, so the face pair names
        # the line
        pair = tuple(index[h] for h in mesh.edge_faces[e])
        if pair in seen:
            continue
        seen.add(pair)
        # per face piece: (sign, column offset, top exponent and column
        # stride of the expansion variable, the same of the other variable)
        sides = []
        for k, sign in zip(pair, (1, -1)):
            if pieces[k] is not None:
                off, (s, t) = pieces[k]
                sides.append((sign, off, s, t + 1, t, 1) if e.axis == "v"
                             else (sign, off, t, 1, s, t + 1))
        if not sides:
            continue
        deg = max(side[2] for side in sides)
        across = max(side[4] for side in sides)
        # orders above deg would give empty rows
        block = remainder_rows(*knots[e.axis, e.line], deg,
                               min(smoothness.edge_r[e], deg))
        tail_col = len(block)
        for j, (lead, tail) in enumerate(block):
            signed = {1: (lead, tail), -1: (-lead, [-c for c in tail])}
            for l in range(across + 1):
                row = {}
                for sign, off, top, stride, top_l, stride_l in sides:
                    if l <= top_l and j <= top:
                        first = off + l * stride_l
                        at_j, above = signed[sign]
                        row[first + j * stride] = at_j
                        cols = range(first + tail_col * stride,
                                     first + (top + 1) * stride, stride)
                        row.update(zip(cols, above))
                if row:
                    rows.append(row)
    return total - rank_sparse(rows)


def h0_ideal_oracle(an, m) -> int:
    """Exact H0 dimension of the line ideal complex of a segment analysis
    (segments.SegmentAnalysis) by brute-force rank.

    Blocks are the interior segments' quotient pieces; relations come from
    every perpendicular crossing at an active interior vertex, with the
    block component dropped when the crossing partner meets the boundary.
    """
    m = check_bidegree(m)
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

    basis = {}
    total = 0
    for rho in an.interior:
        mono = reps(rho.e)
        basis[rho.key] = {ab: total + k for k, ab in enumerate(mono)}
        total += len(mono)

    rows = []
    seen = set()
    for rho, p_rho, cs in zip(an.interior, an.index.pos, an.index.crossers):
        for _, p, r in cs:
            pair = (min(p, p_rho), max(p, p_rho))
            if pair in seen:
                continue
            seen.add(pair)
            sig = an.segments[p]
            h_seg, v_seg = (rho, sig) if rho.axis == "h" else (sig, rho)
            r_h = rho.r if rho.axis == "h" else r
            r_v = rho.r if rho.axis == "v" else r
            mus = reps((r_v + 1, r_h + 1))
            if not mus:
                continue
            x0, y0 = v_seg.line, h_seg.line
            # power_grid multiplies each part by q^(r+1) of the other
            # segment's line and r, constant along a segment: a row scaling
            # times a column scaling by each block's own factor, so the
            # rank is unchanged
            terms = []
            if h_seg.interior:
                terms.append((h_seg, power_grid("s", x0, r_v + 1)[0], 1))
            if v_seg.interior:
                terms.append((v_seg, power_grid("t", y0, r_h + 1)[0], -1))
            for mu in mus:
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
