"""The oracle's row transfer vertex by vertex, the reference for the kernel.

``oracle._row`` holds the states of a row in two dicts, one per state of
the horizontal edge, and writes each output once from a pair of inputs.
``vertex_row`` keeps one dict keyed by v << 1 | h and adds each vertex's
contribution to its output key as it comes, case by vertex type.
``reference_sum`` sweeps whole grids with it, on weights scaled by the lcm
of every denominator, c^2's included, where the engine scales by the least
D that clears a, b and c^2 D^2.

``forward_sum`` sweeps every row of a grid forward with the engine's
``_row``, constraints included, with no memo and no split: the reference
for the split and memoized sums.  ``grid_distribution`` is the boundary
distribution of one grid from its own row 1 and its own bottom sweep, and
``block`` cuts the bottom-left n x n block out of a grid as a grid of its
own: the reference for the distributions that the engine reads for every
block off one turned sweep of the whole grid.
"""

from fractions import Fraction
from itertools import zip_longest
from math import lcm

from gefp_lab import oracle
from gefp_lab.backends import to_exact


def vertex_row(a, b, c2, states, width, mark=None, frozen=None):
    """Carry {v_in: weight} across one row, vertex by vertex from the right.

    Before column k a key is v << 1 | h: v has the bottom states of the
    columns crossed and the top states of the rest, h is the edge right of
    column k.  mark: the edge left of that column points left.  frozen: the
    vertices at columns > frozen are of type 2.
    """
    cur = {v << 1: w for v, w in states.items()}
    for k in range(width):
        bit, ak, bk = 2 << k, a[k], b[k]
        if frozen is not None and k >= frozen:
            cur = {key: w for key, w in cur.items() if key & 1 and key & bit}
        nxt = {}
        get = nxt.get
        for key, w in cur.items():
            if (key >> k + 1 ^ key) & 1:    # v_top != h: type 3 or 4, or turn as 5 or 6
                turned = key ^ bit ^ 1
                nxt[key] = get(key, 0) + w * bk
                nxt[turned] = get(turned, 0) + (w * c2 if key & 1 else w)
            else:                           # type 1 or 2
                nxt[key] = get(key, 0) + w * ak
        if mark == k + 1:
            nxt = {key: w for key, w in nxt.items() if key & 1}
        cur = nxt
    return {key >> 1: w for key, w in cur.items() if key & 1}


def lcm_weights(grid):
    """(aL, bL, c^2 L^2, L), L the lcm of every weight's denominator, c^2's
    included: a scale that clears each weight on its own."""
    a, b = ([[to_exact(x) for x in row] for row in rows] for rows in (grid.a, grid.b))
    c2 = to_exact(grid.c2)
    den = lcm(c2.denominator, *(x.denominator for row in a + b for x in row))
    a, b = ([[int(x * den) for x in row] for row in rows] for rows in (a, b))
    return a, b, int(c2 * den * den), den


def reference_sum(grid, marks=()):
    """The reduced partition sum Z / c^N, or its marked part: every row swept
    by ``vertex_row`` from the top boundary on the lcm-scaled weights."""
    n = grid.N
    a, b, c2, den = lcm_weights(grid)
    states = {(1 << n) - 1: 1}
    for j in range(n):
        states = vertex_row(a[j], b[j], c2, states, n, marks[j] if j < len(marks) else None)
    return Fraction(states.get(0, 0), den ** (n * (n - 1)))


def forward_sum(grid, marks=(), frozen=(), widths=()):
    """The reduced sum of all N rows swept forward from the top boundary by
    ``oracle._row`` under the GEFP marks, the frozen corner or the
    cut-domain widths of the first rows, as one exact ``Fraction``."""
    n = grid.N
    a, b, c2, den = grid._transfer_weights
    widths = list(widths) + [n] * (n - len(widths))
    states, prev = {0: 1}, 0
    for a_row, b_row, width, mark, froz in zip_longest(a, b, widths, marks, frozen):
        # the top boundary and the edges entering a wider row from outside point down
        states = {v | (1 << width) - (1 << prev): w for v, w in states.items()}
        states, prev = oracle._row(a_row, b_row, c2, states, width, mark, froz), width
    return Fraction(states.get(0, 0), den ** (sum(widths) - n))


def grid_distribution(grid):
    """(H^(1), ..., H^(N)) of grid on its own: row 1 swept from the top
    boundary and contracted entry-wise with the grid's bottom sweep of the
    N - 1 rows below it, each entry one ratio rounded once."""
    n = grid.N
    a, b, c2, _ = grid._transfer_weights
    full = (1 << n) - 1
    first = oracle._row(a[0], b[0], c2, {full: 1}, n)
    rest = oracle._bottom(grid, n - 1)
    h = [first.get(full ^ 1 << k, 0) * rest.get(full ^ 1 << k, 0) for k in range(n)]
    return [grid.rounded(Fraction(x, sum(h))) for x in h]


def block(grid, n):
    """The bottom-left n x n block of grid (rows N-n+1..N from the top,
    columns N-n+1..N from the right) as a grid of its own."""
    cut = grid.N - n
    return oracle.WeightGrid([row[cut:] for row in grid.a[cut:]],
                             [row[cut:] for row in grid.b[cut:]], grid.c2, backend=grid.backend)
