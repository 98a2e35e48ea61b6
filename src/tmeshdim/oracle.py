"""Independent exact linear-algebra oracles.

oracle_spline_dim assembles the raw smoothness constraints of a spline space
and counts solutions by exact rank, with no use of the combinatorial
machinery. span_dim / span_quotient_dim measure subspaces spanned by
polynomial generators in the monomial basis. Both exist to cross-check the
closed formulas, so they stay deliberately naive.
"""

from fractions import Fraction
from math import comb

from .linalg import rank_sparse
from .mesh import TMesh, bd_sub


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


def oracle_spline_dim(mesh: TMesh, profile, smoothness, m) -> int:
    """Spline space dimension by brute-force constraint rank.

    Unknowns are the monomial coefficients of each face's polynomial piece;
    each interior edge contributes the vanishing of the first r+1 Taylor
    coefficients of the piece difference across its line. Rows repeated by
    edge subdivision are deduplicated by face pair. On the line
    c0 = p/q the Taylor row of order j is scaled by q^(deg - j), where deg
    is the highest power of the expansion variable, so its entries are the
    integers comb(a, j) p^(a-j) q^(deg-a).
    """
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
        p, q = e.line.numerator, e.line.denominator
        p_pow = [p ** k for k in range(deg + 1)]
        q_pow = [q ** k for k in range(deg + 1)]
        for j in range(smoothness.edge_r[e] + 1):
            coef = [comb(a, j) * p_pow[a - j] * q_pow[deg - a]
                    for a in range(j, deg + 1)]
            signed = {1: coef, -1: [-c for c in coef]}
            for l in range(across + 1):
                row = {}
                for sign, off, top, stride, top_l, stride_l in sides:
                    if l <= top_l:
                        first = off + l * stride_l
                        cols = range(first + j * stride,
                                     first + (top + 1) * stride, stride)
                        row.update(zip(cols, signed[sign]))
                if row:
                    rows.append(row)
    return total - rank_sparse(rows)
