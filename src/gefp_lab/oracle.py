"""Ground-truth engine: weighted enumeration over lattice configurations.

Conventions, fixed once for the whole package:

* rows are counted from the top (row 1 first), columns from the right
  (column 1 is rightmost);
* a vertical edge state 1 means the arrow points down, 0 up; a horizontal
  edge state 1 means the arrow points left, 0 right;
* domain wall boundary conditions: horizontal boundary arrows point out of
  the lattice, vertical boundary arrows point in.  So the state above row 1
  is all ones and the state below row N all zeros, every row sweep starts
  with h = 0 at the right boundary and must end with h = 1 at the left.

The six vertex types, as (h_left, h_right, v_top, v_bottom):

    1: (0,0,0,0) weight a      2: (1,1,1,1) weight a
    3: (0,0,1,1) weight b      4: (1,1,0,0) weight b
    5: (1,0,1,0) weight c      6: (0,1,0,1) weight c

Every configuration satisfies n5 = n6 + N, so c^(n5+n6) = c^N * (c^2)^(n6).
The transfer loop therefore weights type 6 by c^2 and type 5 by 1, and the
partition function carries one overall factor c^N.  Probabilities are ratios
of these reduced sums and never need c itself, which keeps the exact backend
closed over the rationals even when c^2 has no rational square root.

The transfer engine crosses each row column by column on Python ints, with
the states split by the horizontal edge into two dicts so that each output
is written once, and returns one exact ratio of integers, float weights
entering as the dyadic rationals they hold.  So every float result is that
ratio rounded once.  The loop reads aD, bD and c^2 D^2, D the lcm of the a
and b denominators and of the least r with r^2 c^2 an integer: c^2 enters
only as c^2 D^2, so D need not clear c^2 itself, and on a dyadic grid it is
the least integer that makes all three integers.  Constraints (GEFP marks,
the frozen corner) sit in rows 1..s only, so the N - s rows below are
swept, turned by 180 degrees, and each constrained sum is a short sweep of
the s top rows contracted with that one vector.  Z is the turned sweep's
level N against the top boundary, and the cut-corner sum is the frozen one
over a^{|mu|}: every sum is one forward chain against one turned level.
Every sweep is memoized per parameter point under the grid's point key,
one small integer that names its integer weights and is shared by every
grid there (exact or float at the same dyadic weights), so no row is swept
twice: the turned rows, swept to the deepest level asked for, serve every
bottom sweep and the H table of every bottom-left block, and the top rows
are kept per prefix of r.  The sums stay integers times D^(N(N-1)) until a
caller's one ``Fraction``.  A deliberately naive ice-rule filter (N <= 3)
double-checks it from scratch.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement, count, product
from math import comb, isqrt, lcm
from typing import NamedTuple

from mpmath import mp

from .backends import EXACT, FLOAT, to_exact, to_float
from .errors import BadIndex, DivisionByZero, TooLarge, Unsupported
from .params import Frozen, SpectralData, VertexWeights

DEFAULT_ORACLE_CAP = 8
NAIVE_CAP = 3
_MEMO_MAX = 64
_PREFIX_STATES = 4096 * comb(8, 4)   # states in _top's memo: 4,096 entries at N = 8, 310 at 12

_point_keys = {}  # transfer weights -> point key, see WeightGrid._point_key
_sweeps = {}      # keyed by (point key, rows | "levels"), see _bottom
_prefixes = {}    # keyed by (point key, "marks" | "frozen", r), see _top
_new_point_key = count().__next__


def _cached(cache, key, build, bound=_MEMO_MAX):
    """Bounded per-process memo; the oldest entries go, to make room."""
    hit = cache.get(key)
    if hit is None:
        hit = build()
        while len(cache) >= bound:
            cache.pop(next(iter(cache)))
        cache[key] = hit
    return hit


class YoungProfile(Frozen):
    """Edge positions 1 <= r_1 <= ... <= r_s <= N, one per row from the top.

    The complementary diagram mu = (N - r_1, ..., N - r_s) is the frozen
    corner shape; r_j < j forces the correlation to vanish.
    """

    __slots__ = ("N", "r")

    def __init__(self, N, r):
        super().__init__(int(N), tuple(int(x) for x in r))
        if self.N < 1:
            raise BadIndex(f"N must be positive, got {N}")
        if len(self.r) > self.N:
            raise BadIndex(f"profile length {len(self.r)} exceeds N={self.N}")
        prev = 1
        for j, rj in enumerate(self.r, start=1):
            if rj < prev or rj > self.N:
                raise BadIndex(
                    f"profile must satisfy 1 <= r_1 <= ... <= r_s <= N, got r={self.r}")
            prev = rj

    @property
    def s(self):
        return len(self.r)

    @property
    def blocked(self):
        """Some r_j < j: the frozen corner cannot fit, so the correlation is 0."""
        return any(rj < j for j, rj in enumerate(self.r, start=1))

    @property
    def mu(self):
        return tuple(self.N - rj for rj in self.r)

    @property
    def mu_size(self):
        return sum(self.mu)

    def reduced(self):
        """Profile with the last row dropped (same N)."""
        return YoungProfile(self.N, self.r[:-1])


class CorrelationResult(NamedTuple):
    """A computed GEFP value, the engine that computed it and its backend."""

    value: object
    engine: str
    backend: str


class WeightGrid:
    """Per-site weights (a_jk, b_jk) plus the global c (through c^2).

    a[j][k] is the weight at row j+1 (from the top), column k+1 (from the
    right).  The homogeneous constructor repeats one triple; the spectral
    constructor applies a_jk = sin(lambda_k - nu_j + eta).
    """

    def __init__(self, a_rows, b_rows, c2, c=None, homogeneous=False, backend=EXACT):
        self.a = tuple(tuple(r) for r in a_rows)
        self.b = tuple(tuple(r) for r in b_rows)
        self.c2 = c2
        self.c = c
        self.homogeneous = homogeneous
        self.backend = backend
        self.N = len(self.a)

    @classmethod
    def from_weights(cls, N, w: VertexWeights):
        """All N rows are one shared tuple, so an oversize N costs O(N) until
        an engine's cap refuses it."""
        return cls([(w.a,) * N] * N, [(w.b,) * N] * N, w.c2, w.c, homogeneous=True,
                   backend=w.backend)

    @classmethod
    def from_spectral(cls, spec: SpectralData):
        n = spec.n
        eta = spec.eta
        a = [[mp.sin(spec.lambdas[k] - spec.nus[j] + eta) for k in range(n)]
             for j in range(n)]
        b = [[mp.sin(spec.lambdas[k] - spec.nus[j] - eta) for k in range(n)]
             for j in range(n)]
        c = mp.sin(2 * eta)
        return cls(a, b, c * c, c, homogeneous=False, backend=FLOAT)

    def rounded(self, x: Fraction):
        """An exact transfer ratio in this grid's backend, rounded once if float."""
        return x if self.backend == EXACT else to_float(x)

    @cached_property
    def _transfer_weights(self):
        """(aD, bD, c^2 D^2, D), D the least common multiple of every a and b
        denominator and of ``_root_denominator`` of c^2's.

        c^2 enters only as c^2 D^2, so D need not clear c^2 itself: on a
        dyadic grid D is the least integer that makes all three integers.
        An mpf enters as the dyadic rational it holds, so the loop is exact
        on both backends and a float result is rounded once at the end.
        Each distinct weight object and row tuple is converted once, keyed
        by identity, so a homogeneous grid costs O(N); c^2 may be one of
        those objects, and its denominator as a weight enters D all the
        same.  It is all integers in tuples and keys the oracle memo: two
        grids with equal weights here have equal transfer sums, whatever
        their backend.
        """
        rows = {id(r): r for r in self.a + self.b}
        weights = {id(x): x for x in chain(*rows.values())}
        exact = {k: to_exact(x) for k, x in {id(self.c2): self.c2, **weights}.items()}
        c2 = exact[id(self.c2)]
        den = lcm(_root_denominator(c2.denominator), *(exact[k].denominator for k in weights))
        scaled = {k: exact[k].numerator * (den // exact[k].denominator) for k in weights}
        c2, rest = divmod(c2.numerator * den * den, c2.denominator)
        assert not rest, "c^2 D^2 is not an integer"
        ints = {k: tuple(scaled[id(x)] for x in r) for k, r in rows.items()}
        return (tuple(ints[id(r)] for r in self.a), tuple(ints[id(r)] for r in self.b),
                c2, den)

    @cached_property
    def _point_key(self):
        """The small integer that keys this grid's sweeps in the memos.

        Grids with equal ``_transfer_weights`` share it, whatever their
        backend, so the weights are hashed once per grid and not on every
        lookup.  Keys come from a counter and are never reused: a point
        evicted from ``_point_keys`` comes back under a new key, never
        under another point's.
        """
        return _cached(_point_keys, self._transfer_weights, _new_point_key)


def _root_denominator(q):
    """An r with q | r^2: 2^ceil(e/2) times sqrt(o) if the odd part o of
    q = 2^e o is a square, else times o.  So r divides q, and it is the
    least such r whenever o is a square, as on every dyadic grid."""
    e = (q & -q).bit_length() - 1
    o = q >> e
    root = isqrt(o)
    return (1 << (e + 1) // 2) * (root if root * root == o else o)


def _row(a, b, c2, states, width, mark=None, frozen=None):
    """Carry {v_in: weight} across one row, column by column from the right.

    Before column k the states sit in two dicts keyed by v, which holds the
    bottom states of the columns crossed and the top states of the rest:
    ``lo`` where the edge right of column k points right (h = 0), ``hi``
    where it points left.  With v_top the bit of column k, a ``lo`` state
    with v_top = 1 (type 3 or turned as 5) and the ``hi`` state v ^ bit
    (type 4 or turned as 6) feed the same two outputs, so the pair writes
    both at once; types 1 and 2 keep their key.  Each output is written
    once.  mark: the edge left of that column points left.  frozen: the
    vertices at columns > frozen are of type 2.  Returns ``hi`` after the
    last column, where the left boundary points left.
    """
    lo, hi = states, {}
    for k in range(width):
        bit, ak, bk = 1 << k, a[k], b[k]
        if frozen is not None and k >= frozen:
            lo, hi = {}, {v: w for v, w in hi.items() if v & bit}
        nlo, nhi = {}, {}
        for v, w in lo.items():
            if v & bit:
                u = v ^ bit
                x = hi.get(u)
                if x is None:
                    nlo[v], nhi[u] = w * bk, w
                else:
                    nlo[v], nhi[u] = w * bk + x * c2, x * bk + w
            else:
                nlo[v] = w * ak
        for v, w in hi.items():
            if v & bit:
                nhi[v] = w * ak
            elif v | bit not in lo:     # a pair whose lo partner is missing
                nlo[v | bit], nhi[v] = w * c2, w * bk
        lo, hi = ({} if mark == k + 1 else nlo), nhi
    return hi


def _levels(grid: WeightGrid, rows) -> list:
    """The point's turned levels, one memo entry, swept to ``rows`` deep.

    A 180-degree turn keeps domain-wall boundaries and every vertex weight
    (5 and 6 map to themselves, 1 to 2, 3 to 4), so level j, the turned
    states above the last j rows with their integer weights, is the sweep
    of the turned grid's top j rows; a deeper request resumes from it.
    """
    n = grid.N
    a, b, c2, _ = grid._transfer_weights
    levels = _cached(_sweeps, (grid._point_key, "levels"), lambda: [{(1 << n) - 1: 1}])
    for j in range(n - len(levels), n - 1 - rows, -1):
        levels.append(_row(a[j][::-1], b[j][::-1], c2, levels[-1], n))
    return levels


def _bottom(grid: WeightGrid, rows) -> dict:
    """{state above the last ``rows`` rows: integer weight of those rows},
    level ``rows`` of ``_levels`` with each turned state read back once as
    its bit-reversed complement.  ``rows = 0`` gives {0: 1}, the all-up
    state below row N.  Callers only read the result."""
    def read_back():
        n, full = grid.N, (1 << grid.N) - 1
        return {full ^ int(f"{u:0{n}b}"[::-1], 2): w
                for u, w in _levels(grid, rows)[rows].items()}

    return _cached(_sweeps, (grid._point_key, rows), read_back)


def _top(grid: WeightGrid, kind, r) -> dict:
    """{state below row s: weight of rows 1..s}, s = len(r), under the
    GEFP marks (``kind`` "marks") or the frozen corner ("frozen") of r.

    Profiles sharing r[:j] share these j rows, so every prefix is memoized per
    point and kind, oldest out past ``_PREFIX_STATES`` / C(N, N // 2) entries
    of up to C(N, N // 2) states, and a call resumes from the longest held;
    ``kind`` in the key keeps the chains apart.  r = () is the top boundary.
    Callers only read it.
    """
    n, key = grid.N, grid._point_key
    a, b, c2, _ = grid._transfer_weights
    bound = max(1, _PREFIX_STATES // comb(n, n // 2))
    j = next((j for j in range(len(r), 0, -1) if (key, kind, r[:j]) in _prefixes), 0)
    states = _prefixes[key, kind, r[:j]] if j else {(1 << n) - 1: 1}
    for j in range(j, len(r)):
        mark, frozen = (r[j], None) if kind == "marks" else (None, r[j])
        states = _cached(_prefixes, (key, kind, r[:j + 1]),
                         lambda: _row(a[j], b[j], c2, states, n, mark, frozen), bound)
    return states


def _contract(states, bottom) -> int:
    """The top states against the bottom ones: a reduced sum times D^(N(N-1)).

    Every row has n5 - n6 = 1, so each of the N rows has N - 1 vertices of
    weight aD, bD or c^2 D^2 (type 6 counted twice, type 5 weighs 1): the
    reduced sum is this integer over D^(N(N-1)) on both backends.  Callers
    divide, in one ``Fraction``, and round it once.
    """
    return sum(w * bottom.get(v, 0) for v, w in states.items())


def _reduced_z(grid: WeightGrid) -> int:
    """Z / c^N times D^(N(N-1)), an integer: level N of the turned sweep,
    read back, weights the top boundary state by it."""
    return _bottom(grid, grid.N).get((1 << grid.N) - 1, 0)


def _nonzero(z, n):
    """The partition sum z of size n, refused when it vanishes."""
    if z == 0:
        raise DivisionByZero(f"the partition sum Z_{n} vanishes at these weights")
    return z


def _check_cap(n, cap):
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    if n > cap:
        raise TooLarge(f"N={n} exceeds the enumeration cap {cap}")


def partition_function_oracle(grid: WeightGrid, cap=None):
    """Partition function Z_N by transfer over vertical-edge states.

    Needs a concrete value of c: exact grids whose c^2 has no rational square
    root can only produce probability ratios, not Z itself.
    """
    _check_cap(grid.N, cap)
    if grid.c is None:
        raise Unsupported("Z_N needs a concrete c; this grid only carries c^2")
    return grid.c ** grid.N * reduced_partition_oracle(grid, cap)


def reduced_partition_oracle(grid: WeightGrid, cap=None):
    """The c-reduced sum Z_N / c^N; always available, both backends."""
    _check_cap(grid.N, cap)
    n = grid.N
    return grid.rounded(Fraction(_reduced_z(grid), grid._transfer_weights[3] ** (n * (n - 1))))


def gefp_oracle(grid: WeightGrid, profile: YoungProfile, cap=None) -> CorrelationResult:
    """Probability that the s marked horizontal edges all point left.

    Edge j sits in row j between columns r_j and r_j + 1 from the right.
    The equivalent characterization (a frozen corner of type-2 vertices with
    diagram shape mu) is evaluated as well and must agree exactly, on both
    backends; a mismatch means a bug, so it raises.  Z (the turned sweep's
    level N), the bottom rows s+1..N (its level N - s) and the marked and
    the frozen rows 1..s (resumed from the longest prefix of r swept
    before) are memoized per parameter point and shared by every grid
    there; the frozen chain is also the cut-domain numerator of
    ``reduced_modified_domain_partition``.  Both sums and Z are integers
    over one D^(N(N-1)), compared as they are; the value is their one
    ``Fraction``.
    """
    _check_cap(grid.N, cap)
    if profile.N != grid.N:
        raise BadIndex(f"profile N={profile.N} does not match grid N={grid.N}")
    n, s = grid.N, profile.s
    bottom = _bottom(grid, n - s)
    z = _nonzero(_reduced_z(grid), n)
    marked, frozen = (_contract(_top(grid, kind, profile.r), bottom)
                      for kind in ("marks", "frozen"))
    if marked != frozen:
        raise AssertionError("edge-based and frozen-region GEFP disagree: "
                             f"{Fraction(marked, z)} vs {Fraction(frozen, z)}")
    return CorrelationResult(grid.rounded(Fraction(marked, z)), "oracle", grid.backend)


def _boundary_sums(grid: WeightGrid, n, cap=None):
    """The integers h_k (k < n) of H for the bottom-left n x n block and
    their sum, refused if it vanishes; the cap is checked before any sweep.

    The block's row 1 is swept from its top boundary.  By interlacing, a
    state at turned level n - 1 with bits n..N-1 all set has every vertex
    right of the block of type 1, so ``extra | 1 << (n-1-k)`` holds the
    block's rows below a c-vertex at column k times an a-weight product
    that is the same for every k and cancels in H.
    """
    _check_cap(grid.N, cap)
    N, full = grid.N, (1 << n) - 1
    a, b, c2, _ = grid._transfer_weights
    first = _row(a[N - n][N - n:], b[N - n][N - n:], c2, {full: 1}, n)
    rest, extra = _levels(grid, n - 1)[n - 1], (1 << N) - 1 ^ full
    h = [first.get(full ^ 1 << k, 0) * rest.get(extra | 1 << n - 1 - k, 0) for k in range(n)]
    return h, _nonzero(sum(h), n)


def _block_grid(N, delta, t):
    """The N grid at (Delta, t), the cap checked before its O(N) rows are built."""
    weights = VertexWeights.from_delta_t(delta, t, allow_nonphysical=True)
    _check_cap(N, None)
    return WeightGrid.from_weights(N, weights)


def boundary_distribution_oracle(grid: WeightGrid, cap=None):
    """The full boundary distribution (H^(1), ..., H^(N)) in one sweep.

    Row 1 has a single c-vertex, at column r, so the state below it is all
    down but for column r: ``_boundary_sums`` at n = N.  Every entry is one
    ratio of integers, so a float entry is rounded once.
    """
    if grid.N < 1:
        raise BadIndex(f"the boundary distribution needs N >= 1, got N={grid.N}")
    h, z = _boundary_sums(grid, grid.N, cap)
    return [grid.rounded(Fraction(x, z)) for x in h]


def modified_domain_partition(grid: WeightGrid, profile: YoungProfile, cap=None):
    """Partition function of the lattice with the mu-shaped corner removed.

    Row j keeps its rightmost r_j vertices (j <= s); boundary arrows stay of
    domain-wall type on the staircase.  Homogeneous weights only: the
    correspondence with the GEFP divides out a^{|mu|}, which is only
    meaningful when all a-weights agree.  Satisfies
    Z_mod * a^{|mu|} = GEFP * Z_N.
    """
    if grid.c is None:
        raise Unsupported("Z on the cut domain needs a concrete c")
    return grid.c ** grid.N * reduced_modified_domain_partition(grid, profile, cap)


def reduced_modified_domain_partition(grid: WeightGrid, profile: YoungProfile, cap=None):
    """Cut-corner partition sum without the overall c^N factor.

    The frozen corner is forced to type 2 and its boundary is the cut
    domain's, so the frozen chain of ``gefp_oracle`` (shared with it in the
    memo) is this sum times a^{|mu|}: with a = aD / D and |mu| <= N(N-1),
    one exact quotient of integers, rounded once.
    """
    _check_cap(grid.N, cap)
    if not grid.homogeneous:
        raise Unsupported("the cut-corner domain is defined for homogeneous weights")
    if profile.N != grid.N:
        raise BadIndex(f"profile N={profile.N} does not match grid N={grid.N}")
    n, m = grid.N, profile.mu_size
    frozen = _contract(_top(grid, "frozen", profile.r), _bottom(grid, n - profile.s))
    a, den = grid._transfer_weights[0][0][0], grid._transfer_weights[3]
    return grid.rounded(Fraction(frozen, den ** (n * (n - 1) - m) * a ** m))


# ---------------------------------------------------------------------------
# naive filter: the oracle's own oracle

class NaiveEnumeration(NamedTuple):
    """Statistics from brute-force enumeration of all edge assignments."""

    reduced_sum: object          # Z / c^N
    config_count: int
    parity_ok: bool              # n5 == n6 + N in every configuration


_VERTEX_TYPES = {
    (0, 0, 0, 0): 1, (1, 1, 1, 1): 2,
    (0, 0, 1, 1): 3, (1, 1, 0, 0): 4,
    (1, 0, 1, 0): 5, (0, 1, 0, 1): 6,
}


def enumerate_naive(grid: WeightGrid, marks=None) -> NaiveEnumeration:
    """Enumerate every free-edge assignment and filter by the ice rule.

    Deliberately independent of the transfer engine; capped at N <= 3.
    ``marks`` optionally restricts to configurations whose marked edges all
    point left, as in the GEFP numerator.
    """
    n = grid.N
    if n > NAIVE_CAP:
        raise TooLarge(f"naive enumeration is capped at N={NAIVE_CAP}")
    total = Fraction(0)
    count = 0
    parity_ok = True
    free_h = [(j, k) for j in range(n) for k in range(1, n)]
    free_v = [(i, k) for i in range(1, n) for k in range(n)]
    for bits in product((0, 1), repeat=len(free_h) + len(free_v)):
        h = [[0] * (n + 1) for _ in range(n)]   # h[j][k]: edge between cols k, k+1
        v = [[0] * n for _ in range(n + 1)]
        for j in range(n):
            h[j][0] = 0      # right boundary arrow points right
            h[j][n] = 1      # left boundary arrow points left
        for k in range(n):
            v[0][k] = 1      # top boundary arrows point down
            v[n][k] = 0      # bottom boundary arrows point up
        for (j, k), bit in zip(free_h, bits[: len(free_h)]):
            h[j][k] = bit
        for (i, k), bit in zip(free_v, bits[len(free_h):]):
            v[i][k] = bit
        w = Fraction(1)
        n5 = n6 = 0
        ok = True
        for j in range(n):
            for k in range(n):
                key = (h[j][k + 1], h[j][k], v[j][k], v[j + 1][k])
                typ = _VERTEX_TYPES.get(key)
                if typ is None:
                    ok = False
                    break
                if typ in (1, 2):
                    w = w * grid.a[j][k]
                elif typ in (3, 4):
                    w = w * grid.b[j][k]
                elif typ == 6:
                    w = w * grid.c2
                if typ == 5:
                    n5 += 1
                elif typ == 6:
                    n6 += 1
            if not ok:
                break
        if not ok:
            continue
        if marks is not None and any(h[j][rj] != 1 for j, rj in enumerate(marks)):
            continue
        count += 1
        total = total + w
        if n5 != n6 + n:
            parity_ok = False
    return NaiveEnumeration(total, count, parity_ok)


def all_profiles(N, s=None):
    """All weakly increasing profiles for N (and s if fixed), in (s, r) order."""
    sizes = range(1, N + 1) if s is None else [s]
    out = []
    for ss in sizes:
        for r in combinations_with_replacement(range(1, N + 1), ss):
            out.append(YoungProfile(N, r))
    return out
