"""A reference constraint-rank oracle: Taylor rows on untranslated lines.

taylor_spline_dim is the assembly oracle_spline_dim used before it moved to
remainder rows on translated lines. Each interior edge on the line c0 = p/q
asks that the Taylor coefficients of orders 0..min(r, deg) of the piece
difference vanish there; the row of order j is scaled by q^(deg - j), so its
entries are the integers comb(a, j) p^(a-j) q^(deg-a). It ranks with
tmeshdim.linalg.rank_sparse, not the name oracle_spline_dim looks up.
"""

from math import comb

from tmeshdim.linalg import rank_sparse
from tmeshdim.mesh import bd_sub, check_bidegree


def taylor_spline_dim(mesh, profile, smoothness, m):
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

    rows = []
    seen = set()
    for e in mesh.interior_edges:
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
        for j in range(min(smoothness.edge_r[e], deg) + 1):
            coef = [comb(a, j) * p ** (a - j) * q ** (deg - a)
                    for a in range(j, deg + 1)]
            for l in range(across + 1):
                row = {}
                for sign, off, top, stride, top_l, stride_l in sides:
                    if l <= top_l:
                        first = off + l * stride_l
                        cols = range(first + j * stride,
                                     first + (top + 1) * stride, stride)
                        row.update(zip(cols, (sign * c for c in coef)))
                if row:
                    rows.append(row)
    return total - rank_sparse(rows)
