"""Exact rank of sparse integer matrices.

All ranks in this package are computed without floating point, on integer
matrices: every matrix the package ranks is assembled with integer entries,
and a Fraction entry raises TypeError when the input rows are cleared, where
each row is divided by the gcd of its entries (its content). Rows are
eliminated with fraction-free cross-multiplication: a row holding the pivot
column gets a * row - b * pivot row, where a and b are the two pivot-column
entries divided by their gcd. An updated row keeps its content; content is
removed again only from a row that becomes a pivot, before it is used. A
pivot row with a single entry just deletes its column from the rows that
hold it.

Pivots follow Markowitz (1957): the pivot row is the shortest remaining
row, popped from a heap, and the pivot column is the one of its columns
held by the fewest other rows, ties broken on the column. A row is pushed
again only when it gets shorter; an entry popped for a row that has since
grown goes back at the row's current length. A column -> rows index means
a pivot touches only the rows that hold its column.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def _clear_row(row):
    """Convert a {col: int} row to a primitive {col: int} row, a new dict:
    zeros are filtered only when the row holds one, and the row is divided
    only when its content is above 1."""
    out = row if all(row.values()) else {c: v for c, v in row.items() if v}
    g = gcd(*out.values())
    if g > 1:
        return {c: v // g for c, v in out.items()}
    return dict(out) if out is row else out


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
                held = holders.get(c)
                if held is None:
                    holders[c] = {k}
                else:
                    held.add(k)
    # (length, row id), pushed when a row gets shorter; every live row has
    # an entry no longer than itself, so the first entry popped that
    # matches its row's length is a shortest row
    heap = [(len(row), k) for k, row in work.items()]
    heapify(heap)
    rank = 0
    while heap:
        n, k = heappop(heap)
        piv_row = work.get(k)
        if piv_row is None or len(piv_row) < n:
            continue
        if len(piv_row) > n:
            heappush(heap, (len(piv_row), k))
            continue
        del work[k]
        rank += 1
        best = None
        for c in piv_row:
            held = holders[c]
            held.discard(k)
            if best is None or (len(held), c) < best:
                best = (len(held), c)
        piv_col = best[1]
        # every row holding the pivot column loses it, so its index goes
        others = holders.pop(piv_col)
        if n == 1:
            for k2 in others:
                row = work[k2]
                del row[piv_col]
                if row:
                    heappush(heap, (len(row), k2))
                else:
                    del work[k2]
            continue
        g = gcd(*piv_row.values())
        a = piv_row[piv_col] // g
        rest = [(c, v // g) for c, v in piv_row.items() if c != piv_col]
        for k2 in others:
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
                w = row.get(c)
                if w is None:
                    row[c] = -v * b2
                    holders[c].add(k2)
                else:
                    w -= v * b2
                    if w:
                        row[c] = w
                    else:
                        del row[c]
                        holders[c].discard(k2)
            if not row:
                del work[k2]
            elif len(row) < n:
                heappush(heap, (len(row), k2))
    return rank
