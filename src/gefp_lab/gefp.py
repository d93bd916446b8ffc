"""Homogeneous GEFP engines and every input they build (``_columns``,
``OmegaRho``); ``hfun`` builds h and the pole report on top of them.

``gefp_residue`` evaluates the multiple-contour-integral representation.
Since every inverted factor of the integrand is analytic and nonzero at the
origin and the contours enclose only the origin, the iterated residue is one
coefficient of a multivariate power series: the coefficient of
prod_j z_j^(r_j - 1) in

    prod_j [(t^2 - 2 Delta t) z_j + 1]^(s-j) (z_j - 1)^-(s-j+1)
    * prod_{j<k} (z_j - z_k) / (t^2 z_j z_k - 2 Delta t z_j + 1)
    * h_{N,s}(z_1, ..., z_s),

times (-1)^s.  No numerical quadrature is ever performed.  Since
h_{N,s} = det[f_k(z_j)] / prod_{j<k} (z_j - z_k), the two Vandermonde
products cancel, and the engine expands A(z) G(z): the alternant
A = det[f_k(z_j)] and G, the univariate factors over the pair
denominators.  A[alpha] is fixed by the set of alpha's entries and the
parity of their order, and is 0 where two agree, so it is kept by exponent
set, with no box.  Every nonzero term of A has total degree at least
s(s-1)/2, so the extraction at m = r - 1 reads G only on the box [0..m] and
to total degree |m| - s(s-1)/2, and G alone is filled on a box.  The factor
of axis j depends on s - j alone, so G is grown from the last axis: each
axis is put in front of the ones after it and divided by its own pairs on
that suffix box.  Every cache of the engine is keyed by the integers of the
point, the numerators and denominators of Delta and t.  What every s shares
at (N, Delta, t) sits in one point record: B and the pair coefficients, the
N weight grid, each reduced H table and each univariate factor, each built
on first use.  The workspace of each s keeps the rows of A and G's box on
top of it; the first profile there sets the box, a later one that reaches
past it refills G on the whole (N-1)^s box, once, or, where the whole one
is above the cap, on its own box, and each profile costs one convolution,
its terms on the first s - 1 axes kept for the next with the same r[:-1].

The engine runs on Python integers: with B the least integer that makes
(t^2 - 2 Delta t) B, 2 Delta t B and t^2 B^2 integers, A and G are
integer in w = z / B once each H table is the oracle's integer sums over
their gcd (D the product of the totals over the gcds), and a profile costs
one integer convolution and one ``Fraction``.  A float (Delta, t) enters as
the dyadic rationals it holds, and the result is rounded once.

``gefp_determinant_jets`` evaluates the s x s determinant of K-polynomial
operators acting on the omega/rho product, by multivariate jet expansion.
The pair block, the K rows (one Hankel factorisation) and the omega/rho
powers depend only on (N, lambda, eta), so they are built once per N and
shared by every s.  The pair product P_s = prod_{j<k} block(x_j, x_k)
depends on s as well: it is grown one axis at a time, P_s from P_(s-1) and
the s - 1 pairs that touch the new axis, and every P_s is cached.  The
engine runs on Python integers, each group of mpf inputs read as the
integers it holds over one power of two: the closed-form pair block is
rounded once, the pair product keeps ``JETS_GUARD_BITS`` past the working
precision after each pass, and the folds and the contraction are exact,
the result rounded once.  The contraction
runs from the last axis and keeps each fold and the partial tensors of each
profile suffix (r_k, ..., r_s).  K row j has degree N - s + j and the fold
of r_k starts at degree N - r_k, so only the staircase of the pair product
is filled, and each partial tensor lives on [0..r_k - 1]^(k-1).
"""

import math
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import repeat
from operator import add, gt, mul, sub

from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from .algebra import (Jet, TruncatedSeries, UniPoly, _convolve, _minors, geometric_inverse_coeffs,
                      signed_subsets, signed_supersets, staircase_planes)
from .backends import EXACT, FLOAT, is_exact_scalar, to_exact, to_float
from .errors import BadIndex, DivisionByZero, TooLarge, Unsupported
from .ik import a_fn, b_fn, k_polynomials, phi_derivatives
from .oracle import CorrelationResult, YoungProfile, _block_grid, _boundary_sums, _cached
from .params import VertexWeights, weights_from_trig

# Largest pair box N^s the jets engine builds, checked before any work.  One
# cold call at 128 bits, (1.1, 0.35), process time on one x86 core, median
# of three, takes about 0.2 s at (7, 5), 0.9-1.2 s at (14, 4) and 0.35 s at
# (6, 6), the largest boxes under the cap, the workspaces of every smaller s
# included, since each grows from the one below it.  Nearly all of it is the
# integer pair passes on the staircase, s - 1 per s, most of them the last
# s - 1 on the N^s box.  6^6 keeps every s <= N <= 6 and refuses every
# s >= 7.
JETS_BOX_CAP = 6 ** 6

# Largest N of the K route (the jets engine, the K-route H table and the
# homogeneous Z_N), checked with ``JETS_BOX_CAP`` before any phi derivative:
# the box cap alone admits N = 46,656 at s = 1.  A cold CLI call's
# wall_time_ms at 128 bits and (1.1, 0.35), one x86 core, at N = 50 / 64 /
# 100: 0.13-0.38 / 0.25-0.78 / 0.9-1.7 s on the s = 1 routes, and 0.9 / 1.9
# / 11 s, about N^4, at s = 2.
K_ROUTE_N_CAP = 64

# Largest box, in entries, that the residue engine fills, checked before any
# sweep: a cold exact call at r = (7, ..., 7) takes 1.2-1.6 s and 119 MB
# (wall time and peak RSS, one x86 core), and ``table --N 8``, which widens
# to 8^8, ran about 90 s.  7^7 keeps every N <= 7 and N = 8 with s <= 6.
RESIDUE_BOX_CAP = 7 ** 7

# Bits past the working precision that the jets pair product keeps in its
# smallest nonzero staircase entry after each pair pass.  Without the shift
# the entries grow by one block's bit size per pass (to 1,960 bits at (6, 6),
# 128 bits); with it none is longer than about prec + 100, since the entries
# of one pair tensor span at most 86 bits at (14, 4) and (1.1, 0.35).
JETS_GUARD_BITS = 16


class IntegrandSeries:
    """Analytic-at-origin part of the integral representation, expanded.

    The Vandermonde of h cancels against the pair numerators, so the
    integrand is A(z) G(z), the alternant A = det[f_k(z_j)] and G, the
    univariate factors over the pair denominators.  With ``scale`` = (B, D)
    both are integer in w = z / B: A(Bw) times D over B^(s(s-1)/2), and G(Bw).

    A is kept by exponent set: ``rows[used, odd][e]`` is A at each alpha
    whose first s - 1 entries form the mask ``used``, with ``odd`` the parity
    of their pairs j < k with alpha_j < alpha_k, and whose last entry is e.
    G, ``quotient``, is filled on a cap box ``caps`` alone, to total degree
    |caps| - s(s-1)/2, the highest that an extraction inside the box reads;
    ``fill`` rebuilds it on a new box from the point record's inputs, shared
    by every s: ``factors`` lists each axis' univariate factor coefficients
    to degree N-1 and ``pair`` = (a, b) gives the pair denominators
    1 - a w_j + b w_j w_k.  ``head`` memoizes ``coefficient``: the m[:-1] of
    its last profile, and that profile's terms on those axes as (flat offset
    in G, mask of the entries used, row of A) triples; ``fill`` drops it.
    """

    def __init__(self, N, s, scale, rows, factors, pair):
        self.N, self.s, self.scale, self.rows, self.factors, self.pair = \
            N, s, scale, rows, factors, pair
        self.quotient = self.head = None

    @property
    def caps(self):
        return self.quotient.caps

    def fill(self, caps):
        """G on the box [0..caps], in place; ``head`` holds offsets on the
        old box, so it is dropped."""
        self.quotient = _prefactor_series(self.factors, caps, *self.pair)
        self.head = None
        return self

    def coefficient(self, profile: YoungProfile):
        """The GEFP, (-1)^s [prod_j z_j^(r_j - 1)] A G; in w the convolution
        c at m = r - 1 gives c B^(s(s-1)/2) / (B^|m| D).

        A vanishes where alpha repeats an entry, so c runs over the alpha <= m
        with distinct entries alone.  Their first s - 1 axes are grown by the
        Laplace steps of ``signed_supersets``, whose parities pick the row,
        and kept in ``head`` for the next profile with the same m[:-1]; so in
        ``table`` order a profile enumerates only its last axis, contiguous
        in the flat layout.  The box must cover m unless the profile is
        blocked: then no such alpha exists, the mask on the last axis admits
        no entry, no entry is read, and c = 0.
        """
        *head, last = [rj - 1 for rj in profile.r]
        if self.head is None or self.head[0] != head:
            terms = [(0, 0, 0)]
            for j, (mj, stride) in enumerate(zip(head, self.quotient._strides)):
                steps = signed_supersets(self.N, j)
                terms = [(o + e * stride, used, parity ^ odd) for o, rest, parity in terms
                         for e, used, odd in steps[rest] if e <= mj]
            self.head = head, [(o, used, self.rows[used, parity]) for o, used, parity in terms]
        g = self.quotient.data
        top = self.quotient._offset(head) + last
        c = (-1) ** self.s * sum(row[e] * g[top - o - e] for o, used, row in self.head[1]
                                 for e in range(last + 1) if not used >> e & 1)
        B, D = self.scale
        return Fraction(c * B ** (self.s * (self.s - 1) // 2), B ** (sum(head) + last) * D)


def _factor_coeffs(N, p, B, lin):
    """Coefficients, to degree N-1, of the univariate factor
    F_p = [lin w + 1]^(p-1) (B w - 1)^-p, that of axis s - p at every s, in
    w = z / B with lin = (t^2 - 2 Delta t) B; B = 1 gives it in z."""
    return (Jet([1, lin], N - 1) ** (p - 1) * Jet(
        [c * B ** m for m, c in enumerate(geometric_inverse_coeffs(p, N - 1, 1))])).coeffs


def _prefactor_series(factors, caps, a, b):
    """G, every integrand factor except A, on the box [0..caps].

    G is the product of the univariate ``factors`` over the pair factors
    1 - a w_j + b w_j w_k, a = 2 Delta t B and b = t^2 B^2.  Every nonzero
    term of the alternant has total degree at least s(s-1)/2, so an
    extraction inside the box reads G only up to top = |caps| - s(s-1)/2;
    entries above it are zero.  An entry depends only on entries below it,
    so it is the same on every box that holds it.

    The factor of axis j depends on s - j alone, so G is grown from the last
    axis: axis j goes in front of the suffix G on caps[j:], and only its
    passes (0, k), k = 1..s-1-j, run, on that box and to the same ``top``,
    each on the offsets of degree <= top that the degree list of the box
    gives.  The terms dropped, outside the box or above ``top``, are closed
    upward, so every entry is the integer that all C(s, 2) passes on the
    box give.
    """
    s = len(caps)
    top = sum(caps) - s * (s - 1) // 2
    degrees, data = [0], [1]
    for j in reversed(range(s)):
        c = caps[j]
        data = [x * y if m + d <= top else 0
                for m, x in enumerate(factors[j][:c + 1]) for d, y in zip(degrees, data)]
        degrees = [m + d for m in range(c + 1) for d in degrees]
        suffix = TruncatedSeries(caps[j:], 0, data)
        offsets = [o for o, d in enumerate(degrees) if d <= top]
        for k in range(1, s - j):
            suffix = suffix.div_pair(0, k, a, b, offsets)
        data = suffix.data
    return TruncatedSeries(caps, 0, data)


def _columns(tables, N, s):
    """Column polynomials z^k (z-1)^(s-1-k) h_{N-k}(z) for k = 0..s-1."""
    zm1 = UniPoly([-1, 1])
    cols = []
    for k in range(s):
        poly = UniPoly([tables[N - k][0] * 0 + 1])
        for _ in range(s - 1 - k):
            poly = poly * zm1
        poly = poly * UniPoly(tables[N - k])
        cols.append(UniPoly([0] * k + poly.coeffs))
    return cols


def _alternant_rows(tables, N, s, B):
    """A(Bw) / B^(s(s-1)/2) by exponent set, the rows of ``IntegrandSeries``.

    By Cauchy-Binet, A[alpha] = sgn(p) d_S when alpha_j = S_p(j) for a
    descending exponent set S, and 0 when alpha repeats an entry.  Each
    ``_minors`` d_S, on the rows e <= N-1 that an extraction reads, times
    B^|lambda|, lambda_i = S_i - (s - i), goes to entry e of the rows of
    ``used`` for each Laplace step (e, used, odd) of S, signed by ``odd``
    and the row's parity.
    """
    cols = [col.coeffs for col in _columns(tables, N, s)]
    minors, offset = _minors(cols, N - 1, 0), s * (s - 1) // 2
    rows = {(used, parity): [0] * N for used, _ in signed_subsets(N)[s - 1] for parity in (0, 1)}
    for S, terms in signed_subsets(N)[s]:
        d = minors[S] * B ** (sum(e for e, _, _ in terms) - offset)
        for e, used, odd in terms:
            rows[used, odd][e], rows[used, 1 - odd][e] = d, -d
    return rows


_workspace_cache = {}    # residue workspaces, keyed by (N, s, point key)
_point_records = {}      # residue point records, keyed by (N, point key)
_jets_cache = {}
# points that passed the physicality check: residue point keys, and
# (lambda, eta, prec) as mpf tuples for the jets engine
_physical_points = {}


def _residue_point(delta, t, backend, allow_nonphysical):
    """(delta, t) as ``Fraction`` after the parameter checks, and the key of
    every residue cache, their numerators and denominators; an exact
    ``Fraction`` is used as it is, and a float input is rounded once and
    read as the dyadic rational it holds.  Physicality is decided on those
    rationals; a float point is refused with its weights in the float
    format, as the oracle engine shows them, and its rationals are never
    formatted: their digits can pass Python's limit."""
    if backend != EXACT:
        delta, t = to_float(delta), to_float(t)
    elif not (is_exact_scalar(delta) and is_exact_scalar(t)):
        raise Unsupported("the exact residue engine needs rational delta and t")
    point = to_exact(delta), to_exact(t)
    key = point[0].numerator, point[0].denominator, point[1].numerator, point[1].denominator
    if not allow_nonphysical and key not in _physical_points:
        weights = VertexWeights.from_delta_t(*point, allow_nonphysical=backend != EXACT)
        if not weights.physical:
            raise VertexWeights.from_delta_t(delta, t, allow_nonphysical=True).refusal()
        _cached(_physical_points, key, lambda: weights)
    return point, key


class _PointRecord:
    """What every s shares at (N, Delta, t), in w = z / B.

    B is the least integer that makes the three coefficients in w integers:
    ``lin`` = (t^2 - 2 Delta t) B, a = 2 Delta t B and b = t^2 B^2, with
    ``pair`` = (a, b).  That is the lcm of the denominators of
    t^2 - 2 Delta t, 2 Delta t and t, and the last is implied:
    t^2 = (t^2 - 2 Delta t) + 2 Delta t, so t^2 B and with it t^2 B^2 are
    integers once the first two are.  Every other entry in w is an integer
    for any integer B.  ``grid`` is the one N weight grid whose bottom-left
    blocks give every H table; ``tables`` and ``factors`` hold what
    ``table`` and ``factor_list`` have built.
    """

    def __init__(self, N, delta, t):
        lin, a = t * t - 2 * delta * t, 2 * delta * t
        B = math.lcm(lin.denominator, a.denominator)
        lin, a, b = lin * B, a * B, (t * B) ** 2
        assert lin.denominator == a.denominator == b.denominator == 1, \
            "a coefficient times B is not an integer"
        self.N, self.B, self.lin, self.pair = N, B, lin.numerator, (a.numerator, b.numerator)
        self.grid = _block_grid(N, delta, t)
        self.tables, self.factors = {}, []

    def table(self, n):
        """Table n and its scale, built on first use: the oracle's block sums
        h over g = gcd(h), signed as z = sum h, and z / g, the least scale,
        as lcm_k den(h_k / z) = z / gcd(z, h) = z / gcd(h)."""
        hit = self.tables.get(n)
        if hit is None:
            h, z = _boundary_sums(self.grid, n)
            g = math.gcd(*h) if z > 0 else -math.gcd(*h)
            hit = self.tables[n] = [x // g for x in h], z // g
        return hit

    def factor_list(self, s):
        """The factors of axes 0..s-1, F_s, ..., F_1; the F_p not built yet
        are built, so no F_p past the largest s asked is."""
        for p in range(len(self.factors) + 1, s + 1):
            self.factors.append(_factor_coeffs(self.N, p, self.B, self.lin))
        return self.factors[s - 1::-1]


def residue_workspace(N, s, delta, t, backend=EXACT, *, allow_nonphysical=True,
                      profile: YoungProfile = None) -> IntegrandSeries:
    """Cached integer expansion at (N, s) and the point key of
    ``_residue_point``, one entry for both backends, filled on the box the
    profile reads and built on the point record of (N, key), which every s
    shares; (N, s) outside 1 <= s <= N is refused before it is built.
    Physicality is checked before the cache lookup, so a strict call cannot
    read an entry that a permissive call built at the same point.

    The first call at a point fills the box of its profile, m = r - 1, or
    the whole box (N-1)^s when no profile is given.  A later call whose
    profile has some m_j above the box, or that gives no profile, refills
    the same object in place: on the whole box, once, when that holds at
    most ``RESIDUE_BOX_CAP`` entries, and otherwise on the profile's own
    box.  A blocked profile reads no entry, so it never refills.  Every box
    built holds at most ``RESIDUE_BOX_CAP`` entries, so a profile is
    refused, before any build or fill, exactly when its own box holds more:
    the answer does not depend on the calls before it.
    """
    point, key = _residue_point(delta, t, backend, allow_nonphysical)
    whole = (N - 1,) * s
    caps = whole if profile is None else tuple(rj - 1 for rj in profile.r)

    def build():
        check_profile_length(N, s)
        check_residue_box(caps)
        record = _cached(_point_records, (N, key), lambda: _PointRecord(N, *point))
        return _build_exact_series(record, s).fill(caps)

    ws = _cached(_workspace_cache, (N, s, key), build)
    if any(map(gt, caps, ws.caps)):
        check_residue_box(caps)
        if profile is None or not profile.blocked:
            ws.fill(whole if math.prod(c + 1 for c in whole) <= RESIDUE_BOX_CAP else caps)
    return ws


def check_profile_length(N, s):
    """Refuse (N, s) outside 1 <= s <= N with ``BadIndex``."""
    if not 1 <= s <= N:
        raise BadIndex(f"(N, s) = ({N}, {s}) needs 1 <= s <= N")


def check_residue_box(caps):
    """Refuse a fill of the box [0..caps] above ``RESIDUE_BOX_CAP`` entries with ``TooLarge``."""
    if math.prod(c + 1 for c in caps) > RESIDUE_BOX_CAP:
        raise TooLarge(f"the residue box {'x'.join(str(c + 1) for c in caps)} exceeds "
                       f"the cap 7^7 = {RESIDUE_BOX_CAP} entries")


def _build_exact_series(record: _PointRecord, s):
    """The box-independent inputs at (N, s) in w = z / B, read from the
    point record: tables N..N-s+1, D the product of their scales, and
    factors F_s..F_1; only the rows of A are built here, and G is left for
    ``IntegrandSeries.fill``."""
    N, D, tables = record.N, 1, {}
    for n in range(N, N - s, -1):
        tables[n], scale = record.table(n)
        D *= scale
    return IntegrandSeries(N, s, (record.B, D), _alternant_rows(tables, N, s, record.B),
                           record.factor_list(s), record.pair)


def gefp_residue(N, profile: YoungProfile, delta, t, backend=EXACT, *,
                 allow_nonphysical=True) -> CorrelationResult:
    """GEFP by iterated-residue coefficient extraction at (delta, t).

    The H tables come from the enumeration oracle's boundary sweep at
    (delta, t), so N above its default cap raises ``TooLarge`` and a
    vanishing partition sum ``DivisionByZero``.  The workspace is the
    cancelled integrand A G of ``IntegrandSeries``; h is never built.  The
    exact backend needs rational (delta, t).  The float backend (a trig
    point enters through ``delta_t_from_trig``) runs the same integers at
    the dyadic rationals its rounded inputs hold and rounds the result
    once, so a blocked profile gives exactly 0.  Its cost is integer size:
    B grows with the precision and with the binary exponents of Delta and t,
    and the entries of G, built on the box of m = r - 1 to total degree
    |m| - s(s-1)/2, with up to that many times B's bits.  At N = 7,
    r = (2, 4, 6, 7) and the trig point (1.1, 0.35), one cold call takes
    0.018 s at 128 bits, 0.032 s at 256 and 0.09 s at 512 (process time,
    median of seven, one x86 core, pure-Python mpmath).  At 128 bits, N = 4,
    r = (2, 3, 4) and Delta = 0.3, t = 1e-10 / 1e-1000 / 1e-10000 give B of
    323 / 6,893 / 66,691 bits and a cold call of 0.6 ms / 28 ms / 2.0 s
    (one run each); the oracle's exact sums grow alike (1.0 s at 1e-10000).
    """
    if profile.N != N:
        raise BadIndex(f"profile N={profile.N} does not match N={N}")
    if profile.s == 0:
        _residue_point(delta, t, backend, allow_nonphysical)
        value = Fraction(1)
    else:
        value = residue_workspace(N, profile.s, delta, t, backend,
                                  allow_nonphysical=allow_nonphysical,
                                  profile=profile).coefficient(profile)
    return CorrelationResult(value if backend == EXACT else to_float(value),
                             "residue", backend)


def _dyadic(values):
    """Integers c and one exponent e with values[i] == c[i] * 2^e, exactly.

    Each mpf is read from its (sign, mantissa, exponent) tuple, so nothing is
    rounded; nan and infinities raise ``Unsupported``.
    """
    parts = [x._mpf_ for x in values]
    if any(not man and bc for _, man, _, bc in parts):
        raise Unsupported("the operator determinant needs finite inputs")
    e = min((exp for _, man, exp, _ in parts if man), default=0)
    return [(-int(man) if sign else int(man)) << (exp - e)
            for sign, man, exp, _ in parts], e


def _shift_to(data, bits):
    """Shift the integers right, rounding to nearest, until the smallest
    nonzero one has ``bits`` bits (none if it has fewer); returns the shift."""
    shift = min((x.bit_length() for x in data if x), default=0) - bits
    if shift <= 0:
        return 0
    half = 1 << (shift - 1)
    data[:] = [(x + half) >> shift for x in data]
    return shift


def _geometric_rows(w, N):
    """The coefficients, to degree N-1, of (1 - w) w^l for l < N, the l-th
    over 2^((l+1) e), and e <= 0.

    The jet w, with w(0) = 0, is read as integers c over 2^e (shifted to
    e = 0 when e > 0); with p = c^l truncated, (1 - w) w^l is
    (p << -e) - c^(l+1) over 2^((l+1) e).
    """
    c, e = _dyadic(w.coeffs)
    assert c[0] == 0, "the pair block needs w(0) = 0"
    if e > 0:
        c, e = [x << e for x in c], 0
    power, rows = [1] + [0] * (N - 1), []
    for _ in range(N):
        nxt = _convolve(c, power, N, 0)
        rows.append([(x << -e) - y for x, y in zip(power, nxt)])
        power = nxt
    return rows, e


class OmegaRho:
    """Jet factory at eps = 0 for the building-block functions.

    omega = (a/b) sin(eps) / sin(eps - 2 eta) vanishes at 0; rho is its
    companion with rho = 1/(omega - 1); omega_tilde is the image of omega
    under eta -> -eta.  Its companion rho_tilde = 1/(1 - omega_tilde) is
    never built: the jets pair block uses both rho in closed form.
    """

    def __init__(self, lam, eta):
        self.lam = mp.mpf(lam)
        self.eta = mp.mpf(eta)
        self.a = a_fn(self.lam, 0, self.eta)
        self.b = b_fn(self.lam, 0, self.eta)
        self.c = mp.sin(2 * self.eta)
        for name, w in (("a = sin(lambda + eta)", self.a), ("b = sin(lambda - eta)", self.b),
                        ("c = sin(2 eta)", self.c)):
            if w == 0:
                raise DivisionByZero(f"{name} vanishes at lambda={self.lam}, eta={self.eta}")

    def omega(self, order) -> Jet:
        num = Jet.sin_offset(mp.mpf(0), order)
        den = Jet.sin_offset(-2 * self.eta, order)
        return num * den.invert() * (self.a / self.b)

    def rho(self, order) -> Jet:
        num = Jet.sin_offset(-2 * self.eta, order)
        den = Jet.sin_offset(self.lam - self.eta, order)
        return num * den.invert() * (self.b / self.c)

    def omega_tilde(self, order) -> Jet:
        num = Jet.sin_offset(mp.mpf(0), order)
        den = Jet.sin_offset(2 * self.eta, order)
        return num * den.invert() * (self.b / self.a)


class _JetsInputs:
    """The s-independent inputs of the operator determinant at
    (N, lambda, eta, prec), built once and shared by every s.

    ``omega`` is the Taylor jet of omega to order N-1, and ``powers[e]`` the
    Taylor coefficients of rho^N omega^e, e = 0..N-1, as the integers they
    hold over one power of two (``powers_exp``).  ``pair_block`` is the pair
    block (rt rr (wt ww - 1))^-1 on the (N-1, N-1) box, in the same form,
    with rt, wt = rho_tilde, omega_tilde of x and rr, ww = rho, omega of y;
    it is built in closed form from wt and ww alone, on first use, so the
    s = 1 workspace of the K-route H table never builds it.  ``k_rows[n]``
    is K_n[m] m!, m < N, as mpf, every row n < N from one factorisation.
    """

    def __init__(self, N, lam, eta):
        self.N, self.lam, self.eta = N, lam, eta
        self.fns = OmegaRho(lam, eta)
        n = N - 1
        self.omega = self.fns.omega(n)
        powers = [self.fns.rho(n) ** N]
        for _ in range(n):
            powers.append(powers[-1] * self.omega)
        flat, self.powers_exp = _dyadic([x for p in powers for x in p.coeffs])
        self.powers = [flat[o:o + N] for o in range(0, N * N, N)]
        self.k_rows = [[k.coeff(m) * math.factorial(m) for m in range(N)]
                       for k in k_polynomials(phi_derivatives(lam, eta, 2 * n), n)]

    @cached_property
    def pair_block(self):
        """(block, exponent): the pair block's integers, flat on the N^2 box,
        and their power of two.

        rt = 1/(1 - wt) and rr = 1/(ww - 1), so the block is
        (1 - wt(x))(1 - ww(y)) / (1 - wt(x) ww(y)), the sum over l < N of the
        rank-one terms [(1 - wt) wt^l](x) [(1 - ww) ww^l](y): wt and ww vanish
        at 0, so wt^l starts at degree l.  With wt and ww read as integers
        over 2^e1 and 2^e2, e1, e2 <= 0, term l is an integer over
        2^((l+1)(e1+e2)); each is lifted to 2^(N(e1+e2)), so the sum is
        exact, and it is rounded once to ``JETS_GUARD_BITS`` past the working
        precision.
        """
        N = self.N
        (xs, e1), (ys, e2) = (_geometric_rows(w, N)
                              for w in (self.fns.omega_tilde(N - 1), self.omega))
        lift = -(e1 + e2)
        data = [0] * (N * N)
        for l, (u, v) in enumerate(zip(xs, ys)):
            shift = (N - 1 - l) * lift
            for i in range(l, N):
                x = u[i] << shift
                for j in range(l, N):
                    data[i * N + j] += x * v[j]
        exponent = N * (e1 + e2) + _shift_to(data, mp.prec + JETS_GUARD_BITS)
        return data, exponent


class JetsWorkspace:
    """Profile-independent parts of the operator determinant at (N, s, lambda, eta).

    All three parts are Python integers: ``pair`` is P = prod_{j<k}
    block_jk^-1, flat on the N^s box, filled on the staircase that profiles
    read (``staircase_planes``) and 0 off it; ``weights[j][m]`` is
    K_{N-s+j}[m] m! (zero past the degree); ``powers[e]`` holds the Taylor
    coefficients of rho^N omega^e for e = 0..N-1.  Every contraction is an
    integer times 2^``exponent``; ``pair`` alone is over 2^``pair_exponent``,
    so the workspace at s + 1 can start from it.  The K rows and the powers
    are the exact dyadic values of their mpf inputs; the pair block is
    rounded once, and ``pair`` to ``JETS_GUARD_BITS`` past the working
    precision after each pair pass, in the order (0, 1), (0, 2), (1, 2),
    (0, 3), ... that growing P one axis at a time gives.

    ``folds`` and ``partials`` memoize ``contraction``: the fold of one row
    position r into the K rows, and the partial tensors of each profile
    suffix (r_k, ..., r_s) and set of used rows with a live term, on the box
    [0..r_k - 1]^(k-1) that the folds of the profile's first rows reach.
    Both hold only what a cold contraction builds anyway: after every
    profile of (N, s), 79,052 coefficients at (6, 6) and 79,090 at (14, 4),
    against 170,100 and 81,200 with every set of used rows and 1,007,670 and
    310,884 on the whole N^(s-m) box.
    """

    def __init__(self, N, s, pair, weights, powers, exponent, pair_exponent):
        self.N, self.s, self.pair, self.weights, self.powers = N, s, pair, weights, powers
        self.exponent, self.pair_exponent = exponent, pair_exponent
        self.folds, self.partials = {}, {}

    def fold(self, rk):
        """v[j][m] = sum_d u[d] W_j[m + d], u = rho^N omega^(N - rk), in integers."""
        v = self.folds.get(rk)
        if v is None:
            N, u = self.N, self.powers[self.N - rk]
            v = self.folds[rk] = [[sum(map(mul, u[:N - m], w[m:])) for m in range(N)]
                                  for w in self.weights]
        return v

    def contraction(self, r):
        """sum_p sgn(p) sum_i P[i] prod_k v[k][p(k)][i_k] for the profile r.

        v[k] = ``fold(r_k)`` folds the univariate factor of axis k into the K
        rows.  Axes are contracted from the last one, contiguous in the flat
        layout, into one partial tensor per set of used K rows, the Laplace
        steps of ``signed_subsets``: the permutation sign gains a factor -1
        for each used row below the new one.  The partial tensors after
        axis k depend only on r[k:], so the call resumes from the longest
        suffix already in ``partials`` and stores every level it adds.
        Axis k at row position w reads the Laplace steps of
        ``_contraction_plan(s, k, w)`` alone, built once per (s, k, w).

        v[k][j][m] is 0 for m > r_k - s + j, so a dot product on axis k
        needs r_k - s + j + 1 terms of row j, and none if that is <= 0; a set
        of used rows with no live term is not stored, so a blocked profile
        (some r_j < j) runs out of terms and is 0.  Row j is live on an axis
        i < k only if j >= s - r_i >= s - r_k, so a set of used rows that
        lacks some row j < s - r_k cannot be completed and is dropped; the
        test reads r_k alone, so the suffix key stays valid, and the plan
        holds only the sets that pass it.  The partial tensors of r[k:] are
        read only on [0..r_k - 1]^k, and P only on its staircase.  Only exact
        zeros are left out and every dot product is exact, so the result is
        the exact sum at the workspace's integers, rounded once.
        """
        s = self.s
        start = next((k for k in range(s) if tuple(r[k:]) in self.partials), s)
        states, width = ({0: self.pair}, self.N) if start == s else \
            (self.partials[tuple(r[start:])], r[start])
        for k in reversed(range(start)):
            w = r[k]
            v = [row[:max(w - s + j + 1, 0)] for j, row in enumerate(self.fold(w))]
            bases = _box_offsets(k, w, width)
            pieces = {prev: [tensor[o:o + w] for o in bases] for prev, tensor in states.items()}
            nxt = {}
            for used, terms in _contraction_plan(s, k, w):
                for j, prev, odd in terms:
                    if prev in pieces:
                        dots = [sum(map(mul, v[j], piece)) for piece in pieces[prev]]
                        total = nxt.get(used, [0] * len(bases))
                        nxt[used] = list(map(sub if odd else add, total, dots))
            states = self.partials[tuple(r[k:])] = nxt
            width = w
        total = sum(states.get((1 << s) - 1, ()))
        return mp.make_mpf(from_man_exp(total, self.exponent, mp.prec, round_nearest))


@lru_cache(maxsize=256)
def _contraction_plan(s, k, w):
    """The Laplace steps of ``signed_subsets(s)[s - k]`` that axis k reads
    at row position w: the sets of used rows that hold every row j < s - w,
    each with its terms on the live rows j >= s - w alone, and only the sets
    that keep such a term."""
    need, plan = (1 << max(s - w, 0)) - 1, []
    for used, terms in signed_subsets(s)[s - k]:
        live = tuple(term for term in terms if term[0] >= s - w)
        if used & need == need and live:
            plan.append((used, live))
    return tuple(plan)


@lru_cache(maxsize=256)
def _box_offsets(k, w, width):
    """Flat offsets, in flat order, of the points of [0..w-1]^k in a tensor
    of k + 1 axes of ``width`` entries each, the last axis at 0."""
    offsets = [0]
    for _ in range(k):
        offsets = [(o + i) * width for o in offsets for i in range(w)]
    return tuple(offsets)


def check_jets_box(N, s):
    """Refuse N above ``K_ROUTE_N_CAP`` or the pair box N^s above
    ``JETS_BOX_CAP`` with ``TooLarge``."""
    if N > K_ROUTE_N_CAP:
        raise TooLarge(f"N={N} exceeds the K-route cap {K_ROUTE_N_CAP}")
    if N ** s > JETS_BOX_CAP:
        raise TooLarge(f"the pair box N^s = {N}^{s} exceeds the operator-determinant "
                       f"cap {JETS_BOX_CAP}")


def jets_workspace(N, s, lam, eta) -> JetsWorkspace:
    """Cached profile-independent parts of ``gefp_determinant_jets``, keyed by
    the exact parameter values and the precision the workspace is built at;
    the shared inputs sit in the same cache under (N, lambda, eta, prec)."""
    return _jets_workspace(N, s, mp.mpf(lam), mp.mpf(eta))


def _jets_workspace(N, s, lam, eta):
    """``jets_workspace`` for mpf lambda and eta."""
    return _cached(_jets_cache, (N, s, lam._mpf_, eta._mpf_, mp.prec),
                   lambda: _build_jets_workspace(N, s, lam, eta))


def jets_inputs(N, lam, eta) -> _JetsInputs:
    """Cached s-independent inputs of ``jets_workspace``, keyed by
    (N, lambda, eta, prec) in the same cache."""
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    return _cached(_jets_cache, (N, lam._mpf_, eta._mpf_, mp.prec),
                   lambda: _JetsInputs(N, lam, eta))


def _pair_pass(data, N, s, j, k, block):
    """``data`` times block(x_j, x_k) on the staircase S(N, s) alone, both
    flat on the N^s box and 0 off S.  S is closed downward, so each entry of
    a plane of ``staircase_planes`` is the dot products of the source rows
    0..p, trailing zeros dropped, with the block rows p..0 read backwards."""
    strides = [N ** (s - 1 - a) for a in range(s)]
    sj, sk, others = strides[j], strides[k], [strides[a] for a in range(s) if a not in (j, k)]
    cols = [[block[a * N:(a + 1) * N][q::-1] for a in range(N)] for q in range(N)]
    out = [0] * len(data)
    for rest, tops in staircase_planes(N, s):
        base = sum(map(mul, rest, others))
        rows = [data[base + p * sj:base + p * sj + (q + 1) * sk:sk] for p, q in enumerate(tops)]
        for row in rows:
            while row and not row[-1]:
                row.pop()
        if any(rows):
            for p, top in enumerate(tops):
                down, o = rows[p::-1], base + p * sj
                out[o:o + (top + 1) * sk:sk] = [sum(map(sum, map(map, repeat(mul), down, cols[q])))
                                                for q in range(top + 1)]
    return out


def _build_jets_workspace(N, s, lam, eta):
    """The workspace at (N, s), its pair product grown from the one at
    (N, s - 1).

    P_s = P_(s-1) prod_{j<s-1} block(x_j, x_(s-1)), and S(N, s - 1) x {0} is
    the part of S(N, s) at i_(s-1) = 0, so P_(s-1) sits at index 0 of the new
    last axis and s - 1 pair passes finish P_s, each rounded by ``_shift_to``.
    P_1 is the unit.  (N, s) outside 1 <= s <= N is refused first.
    """
    check_profile_length(N, s)
    inputs = jets_inputs(N, lam, eta)
    if s == 1:
        pair, pair_exp = [1] + [0] * (N - 1), 0
    else:
        prev = _jets_workspace(N, s - 1, lam, eta)
        block, block_exp = inputs.pair_block
        pair, pair_exp = [0] * N ** s, prev.pair_exponent
        pair[::N] = prev.pair
        for j in range(s - 1):
            pair = _pair_pass(pair, N, s, j, s - 1, block)
            pair_exp += block_exp + _shift_to(pair, mp.prec + JETS_GUARD_BITS)
    flat, weights_exp = _dyadic([x for row in inputs.k_rows[N - s:] for x in row])
    weights = [flat[o:o + N] for o in range(0, s * N, N)]
    exponent = pair_exp + s * (weights_exp + inputs.powers_exp)
    return JetsWorkspace(N, s, pair, weights, inputs.powers, exponent, pair_exp)


def gefp_determinant_jets(N, profile: YoungProfile, lam, eta, *,
                          allow_nonphysical=True) -> CorrelationResult:
    """GEFP from the s x s determinant of K-polynomial derivative operators.

    Operators acting on distinct eps variables commute, so the determinant
    contracts the K rows, each folded with its univariate factor, against one
    shared multivariate jet of the trailing omega/rho product, one axis at a
    time (see ``JetsWorkspace.contraction``).  N and boxes above their caps
    are refused before any work, and physicality is checked before the
    workspace lookup and before the empty profile's 1, once per (lambda,
    eta, prec) that passes it; a refused point raises on every call.
    """
    if profile.N != N:
        raise BadIndex(f"profile N={profile.N} does not match N={N}")
    s = profile.s
    check_jets_box(N, s)
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    key = lam._mpf_, eta._mpf_, mp.prec
    if not allow_nonphysical and key not in _physical_points:
        weights = weights_from_trig(lam, 0, eta)        # raises NonphysicalWeights
        _cached(_physical_points, key, lambda: weights)
    if s == 0:
        return CorrelationResult(mp.mpf(1), "jets", FLOAT)
    value = _jets_workspace(N, s, lam, eta).contraction(profile.r)
    return CorrelationResult(-value if s % 2 else value, "jets", FLOAT)
