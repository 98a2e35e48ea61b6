"""Exact rank computations over the rationals.

All ranks in this package are computed without floating point: rows are
cleared to integers and eliminated with fraction-free (Bareiss-style)
cross-multiplication, with per-row gcd normalization to keep entries small.
"""

from fractions import Fraction
from math import gcd


def _clear_row(row):
    """Convert a {col: Fraction|int} row to a normalized {col: int} row."""
    items = [(c, Fraction(v)) for c, v in row.items() if v != 0]
    if not items:
        return {}
    lcm = 1
    for _, v in items:
        d = v.denominator
        lcm = lcm // gcd(lcm, d) * d
    out = {c: int(v * lcm) for c, v in items}
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def rank_sparse(rows):
    """Rank of a sparse rational matrix given as an iterable of {col: value} rows."""
    work = [r for r in (_clear_row(row) for row in rows) if r]
    rank = 0
    while work:
        # smallest row first keeps fill-in down
        work.sort(key=len)
        piv_row = work.pop(0)
        rank += 1
        # pivot on the column with the smallest absolute entry of that row
        piv_col = min(piv_row, key=lambda c: (abs(piv_row[c]), c))
        a = piv_row[piv_col]
        nxt = []
        for r in work:
            b = r.get(piv_col)
            if b is None:
                if r:
                    nxt.append(r)
                continue
            new = {}
            for c, v in r.items():
                w = v * a - piv_row.get(c, 0) * b
                if w:
                    new[c] = w
            for c, v in piv_row.items():
                if c not in r and v:
                    new[c] = -v * b
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
                nxt.append(new)
        work = nxt
    return rank
