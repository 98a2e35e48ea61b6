"""Exact rank of sparse integer matrices.

All ranks in this package are computed without floating point, on integer
matrices: every matrix the package ranks is assembled with integer entries,
and a Fraction entry raises TypeError. Each row is divided by the gcd of its
entries. Rows are eliminated with fraction-free cross-multiplication:
a row holding the pivot column gets a * row - b * pivot row, where a and b
are the two pivot-column entries divided by their gcd, and is divided by
the gcd of its entries again.

Pivots follow Markowitz (1957): the pivot row is the shortest remaining
row, popped from a heap, and the pivot column is the one of its columns
held by the fewest other rows, ties broken on the smallest absolute entry
and then on the column. A column -> rows index means a pivot touches only
the rows that hold its column.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def _clear_row(row):
    """Convert a {col: int} row to a primitive {col: int} row."""
    out = {c: v for c, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def rank_sparse(rows):
    """Rank of a sparse integer matrix given as an iterable of {col: int}
    rows; a Fraction entry raises TypeError. The rows themselves are left
    unchanged."""
    work = {}
    holders = {}
    for row in rows:
        row = _clear_row(row)
        if row:
            k = len(work)
            work[k] = row
            for c in row:
                holders.setdefault(c, set()).add(k)
    # (length, row id); an entry is outdated once its row is gone or has
    # another length
    heap = [(len(row), k) for k, row in work.items()]
    heapify(heap)
    rank = 0
    while heap:
        n, k = heappop(heap)
        piv_row = work.get(k)
        if piv_row is None or len(piv_row) != n:
            continue
        del work[k]
        rank += 1
        for c in piv_row:
            holders[c].discard(k)
        piv_col = min(piv_row,
                      key=lambda c: (len(holders[c]), abs(piv_row[c]), c))
        a = piv_row[piv_col]
        rest = [(c, v) for c, v in piv_row.items() if c != piv_col]
        # every row holding the pivot column loses it, so its index goes
        for k2 in holders.pop(piv_col):
            row = work[k2]
            n = len(row)
            b = row.pop(piv_col)
            g = gcd(a, b)
            a2, b2 = a // g, b // g
            if a2 < 0:
                a2, b2 = -a2, -b2
            if a2 != 1:
                for c in row:
                    row[c] *= a2
            for c, v in rest:
                if c in row:
                    w = row[c] - v * b2
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        holders[c].discard(k2)
                else:
                    row[c] = -v * b2
                    holders[c].add(k2)
            if not row:
                del work[k2]
                continue
            g = gcd(*row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
            if len(row) != n:
                heappush(heap, (len(row), k2))
    return rank
