"""Exact rank of sparse integer matrices.

All ranks in this package are computed without floating point, on integer
matrices: every matrix the package ranks is assembled with integer entries,
and a Fraction entry raises TypeError when the input rows are read. Each
row that is not glued (below) is cleared: divided by the gcd of its
entries (its content).

Before any elimination, the rows are glued by union-find, with union by
size and path halving (Tarjan and van Leeuwen 1984). An identification row
{x: v, y: -v} joins the classes of columns x and y, and a single-entry row
{x: v} joins x to a zero class; each join that merges two classes adds 1
to the rank. Every other row is rewritten on class roots: its entries are
summed per class, and entries in the zero class are dropped. This is exact
for any integer matrix: the glued rows span span{e_x - e_y, e_x}, of
dimension the number of merging joins, and the quotient of Z^n by that
span is free on the classes other than the zero class, so the rank is the
joins plus the rank of the rewritten rest.

The rest is eliminated with fraction-free cross-multiplication: a row
holding the pivot column gets a * row - b * pivot row, where a and b are
the two pivot-column entries divided by their gcd. An updated row keeps
its content; content is removed again only from a row that becomes a
pivot, before it is used. A pivot row with a single entry just deletes its
column from the rows that hold it.

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


# the class of the columns that a single-entry row sets to zero
_ZERO = object()


def _find(parent, c):
    """The root of c's class, a column new to parent its own root; each
    link walked is pointed past its parent on the way (path halving)."""
    p = parent.setdefault(c, c)
    while p != c:
        g = parent[p]
        parent[c] = g
        c, p = g, parent[g]
    return c


def _glue(rows):
    """Glue rows into column classes; return (joins, rest).

    An identification row {x: v, y: -v} joins the classes of x and y, and
    a single-entry row {x: v} joins x to _ZERO's class, by union by size
    with _ZERO always a root; joins counts the joins that merged two
    classes. rest holds every other nonzero row, cleared and then written
    on class roots, each a new dict: entries of one class summed, entries
    of _ZERO's class dropped, zeros left out. A Fraction entry raises
    TypeError, in a glued row too."""
    parent = {}
    size = {}
    joins = 0
    rest = []
    for row in rows:
        # gcd raises TypeError on a Fraction, as in _clear_row
        n = len(row)
        if n == 2:
            (x, a), (y, b) = row.items()
            glued = a == -b and gcd(a, b)
        elif n == 1:
            ((x, a),) = row.items()
            y = _ZERO
            glued = gcd(a)
        else:
            glued = False
        if not glued:
            row = _clear_row(row)
            if row:
                rest.append(row)
            continue
        x, y = _find(parent, x), _find(parent, y)
        if x != y:
            sx, sy = size.get(x, 1), size.get(y, 1)
            # _ZERO stays a root: a class joined to it sinks one link
            if y is _ZERO or sx < sy and x is not _ZERO:
                x, y = y, x
            parent[y] = x
            size[x] = sx + sy
            joins += 1
    roots = {c: _find(parent, c) for c in parent}
    for row in rest:
        if roots.keys().isdisjoint(row):
            continue
        for c in list(row):
            r = roots.get(c, c)
            if r != c:
                v = row.pop(c)
                if r is not _ZERO:
                    v += row.get(r, 0)
                    if v:
                        row[r] = v
                    else:
                        del row[r]
    return joins, [row for row in rest if row]


def rank_sparse(rows):
    """Rank of a sparse integer matrix given as an iterable of {col: int}
    rows; a Fraction entry raises TypeError. The rows themselves are left
    unchanged.

    The identification and single-entry rows are glued first (_glue): the
    rank is the number of joins that merged two classes plus the rank of
    the other rows on class roots, which Markowitz elimination takes."""
    rank, rows = _glue(rows)
    work = dict(enumerate(rows))
    holders = {}
    for k, row in work.items():
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
