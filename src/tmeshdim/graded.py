"""Dimension formulas for graded pieces of the filtered polynomial spaces.

The ambient space in bi-degree m = (m1, m2) has dimension (m1+1)(m2+1).
A level sequence n_0 < ... < n_top filters it; L(i) denotes the subspace of
elements divisible by the monomial of exponent n_i, with L(top+1) = 0, and
M(i) = L(i-1)/L(i) the successive quotients. All functions return exact
integers.
"""

from fractions import Fraction
from functools import lru_cache

from .mesh import bd_add, bd_max, bd_sub


class IndexOutOfRange(IndexError):
    pass


class MixedDirectionError(ValueError):
    pass


def dim_shift(m, shift) -> int:
    """Dimension of the ambient piece in bi-degree m shifted by (j, k)."""
    return max(m[0] - shift[0] + 1, 0) * max(m[1] - shift[1] + 1, 0)


def _check_level(levels, i):
    top = len(levels) - 1
    if not 1 <= i <= top + 1:
        raise IndexOutOfRange(f"level index {i} outside 1..{top + 1}")
    return top


def box_sum(terms, m) -> int:
    """The sum of c * dim_shift(m, shift) over the (shift, c) pairs of
    terms: the form every dimension below takes once m is left free."""
    m0, m1 = m[0] + 1, m[1] + 1
    total = 0
    for (a, b), c in terms:
        if a < m0 and b < m1:
            total += c * (m0 - a) * (m1 - b)
    return total


def dim_M_terms(levels, i, shift):
    """dim_M(levels, i, shift, m) as box terms, for box_sum at any m."""
    top = _check_level(levels, i)
    return tuple((bd_add(levels[j], shift), c)
                 for j, c in ((i - 1, 1), (i, -1)) if j <= top)


def dim_M(levels, i, shift, m) -> int:
    """Dimension of the quotient M(i) = L(i-1)/L(i) shifted; i runs 1..top+1."""
    return box_sum(dim_M_terms(levels, i, shift), m)


def vertex_increment_terms(levels, i, e_h, e_v, dstar_h=None, dstar_v=None):
    """The dimension the two-line vertex ideal contributes inside M(i), as
    box terms for box_sum at any m.

    dstar_h / dstar_v are the minimal face deficits over the horizontal
    resp. vertical edges at the vertex; they default to n_{i-1}, which is
    correct whenever the vertex deficit realizes both minima. The value is
    an inclusion-exclusion over genuine monomial ideals, so it is exact
    also when a line through a T-junction carries a larger deficit.
    """
    top = _check_level(levels, i)
    n_prev = levels[i - 1]
    alpha = bd_max(n_prev, dstar_h if dstar_h is not None else n_prev)
    beta = bd_max(n_prev, dstar_v if dstar_v is not None else n_prev)
    e_gamma = bd_add(e_h, e_v)
    terms = [(bd_add(e_h, alpha), 1), (bd_add(e_v, beta), 1),
             (bd_add(e_gamma, bd_max(alpha, beta)), -1)]
    if i <= top:
        n_i = levels[i]
        terms += [(bd_add(e_h, bd_max(alpha, n_i)), -1),
                  (bd_add(e_v, bd_max(beta, n_i)), -1),
                  (bd_add(e_gamma, bd_max(bd_max(alpha, beta), n_i)), 1)]
    return terms


def dim_power_sum(knot_degrees, b, m, direction="t") -> int:
    """Dimension in bi-degree m of a sum of powers of distinct linear forms.

    The forms are univariate along the given direction; knot_degrees lists
    the powers d_k, b is a common shift. Only the count and sizes of the
    powers matter, not the knot values. Each summand is clamped at 0.
    """
    if direction not in ("s", "t"):
        raise MixedDirectionError(f"unknown direction {direction!r}")
    if direction == "t":
        free, bound = m[0] - b[0], m[1] - b[1]
    else:
        free, bound = m[1] - b[1], m[0] - b[0]
    cap = max(bound + 1, 0)
    total = sum(max(bound - d + 1, 0) for d in knot_degrees)
    return max(free + 1, 0) * min(cap, total)


def single_power_terms(levels, i, gen):
    """What one generator (direction, knot, degree, extra shift) spans
    inside M(i), as box terms for box_sum at any m: the monomial box of its
    shift n_{i-1} + extra + its degree, less, below the top, the box of the
    componentwise max of that shift and n_i + its degree, where it meets
    L(i) (the honest monomial lcm). The knot does not enter."""
    direction, _, d, extra = gen
    dshift = (0, d) if direction == "t" else (d, 0)
    low = bd_add(bd_add(levels[i - 1], extra), dshift)
    if i == len(levels):
        return ((low, 1),)
    return ((low, 1), (bd_max(low, bd_add(levels[i], dshift)), -1))


class _GeneratorKey(tuple):
    """A tuple that takes its hash once, at construction, as mesh.Vertex
    does; pickling and copying go through the constructor."""

    def __new__(cls, items):
        self = tuple.__new__(cls, items)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return _GeneratorKey, (tuple(self),)


def _generator_key(gens):
    """gens sorted, each knot as its (numerator, denominator) pair, so that
    hashing and comparing them touch ints only: dim_power_sum_in's cache
    key."""
    return _GeneratorKey(sorted(
        (g[0], (g[1].numerator, g[1].denominator), int(g[2]),
         (int(g[3][0]), int(g[3][1]))) for g in gens))


@lru_cache(maxsize=4096)
def _power_sum_in_cached(levels, i, gens, m):
    """Its exact fallback ranks the generators' span modulo the low box. A
    generator is a polynomial in one variable and the low box a product, so
    the span is block-diagonal in the other variable's exponent:
    oracle.sliced_quotient_dim ranks it one slice at a time."""
    from .oracle import power_grid, sliced_quotient_dim

    top = len(levels) - 1
    if not gens:
        return 0
    directions = {g[0] for g in gens}
    if len(directions) > 1:
        raise MixedDirectionError(f"generators span directions {sorted(directions)}")
    if len({g[1] for g in gens}) != len(gens):
        raise ValueError("repeated knots")
    if len(gens) == 1:
        return box_sum(single_power_terms(levels, i, gens[0]), m)
    extras = {g[3] for g in gens}
    if i == top + 1 and len(extras) == 1:
        (extra,) = extras
        return dim_power_sum([g[2] for g in gens], extra,
                             bd_sub(m, levels[i - 1]), gens[0][0])
    # several generators against a nonzero quotient admit hidden relations
    # among three coprime forms, so the rank is computed, not guessed. A
    # generator with no translate in the ambient box adds no row, so it is
    # dropped before its grid, which grows with its degree, is built
    ambient = bd_sub(m, levels[i - 1])
    lbox = bd_sub(m, levels[i]) if i <= top else None
    grids = []
    for direction, knot, d, extra in gens:
        room = bd_sub(bd_sub(ambient, extra),
                      (0, d) if direction == "t" else (d, 0))
        if room[0] >= 0 and room[1] >= 0:
            grids.append(power_grid(direction, Fraction(*knot), d, extra))
    return sliced_quotient_dim(grids, ambient, lbox)


def dim_power_sum_in(levels, i, gens, m) -> int:
    """Dimension contributed inside the quotient M(i) by a sum of powers.

    gens is a list of (direction, knot, degree, extra_shift) with all
    directions equal; the extra shift accommodates step-monomial factors.
    i runs 1..top+1; at top+1 the quotient is by zero. The segment search
    passes _generator_key(gens) instead, an internal form that saves it
    building the key once per call.
    """
    _check_level(levels, i)
    key = gens if type(gens) is _GeneratorKey else _generator_key(gens)
    return _power_sum_in_cached(
        levels if type(levels) is tuple else tuple(levels), i, key,
        (m[0], m[1]))
