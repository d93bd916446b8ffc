"""Homogeneous GEFP engines.

``gefp_residue`` evaluates the multiple-contour-integral representation.
Since every inverted factor of the integrand is analytic and nonzero at the
origin and the contours enclose only the origin, the iterated residue is one
coefficient of a multivariate power series: the coefficient of
prod_j z_j^(r_j - 1) in

    prod_j [(t^2 - 2 Delta t) z_j + 1]^(s-j) (z_j - 1)^-(s-j+1)
    * prod_{j<k} (z_j - z_k) / (t^2 z_j z_k - 2 Delta t z_j + 1)
    * h_{N,s}(z_1, ..., z_s),

times (-1)^s.  No numerical quadrature is ever performed.  The prefactor
series and the h polynomial depend on the profile only through the
extraction index, so they are cached per (N, s, parameters) and each profile
costs one convolution.

``gefp_determinant_jets`` evaluates the s x s determinant of K-polynomial
operators acting on the omega/rho product, by multivariate jet expansion.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from mpmath import mp

from .algebra import TruncatedSeries, geometric_inverse_coeffs, perm_sign
from .backends import EXACT, FLOAT, format_scalar, is_exact_scalar, to_float
from .errors import BadIndex, NotInvertible, TooLarge, Unsupported
from .hfun import OmegaRho, build_h_tables, h_polynomial
from .ik import PhiJet, k_polynomial
from .oracle import CorrelationResult, YoungProfile, WeightGrid, gefp_oracle
from .params import VertexWeights, lambda_eta_from_delta_t

JETS_S_CAP = 6


@dataclass
class IntegrandSeries:
    """Analytic-at-origin part of the integral representation, expanded.

    ``prefactor`` holds every factor except h; ``h`` is the multivariate
    boundary polynomial.  The GEFP for a profile is (-1)^s times the
    convolution of the two coefficient tables at index (r_1-1, ..., r_s-1).
    """

    N: int
    s: int
    prefactor: TruncatedSeries
    h: TruncatedSeries
    backend: str

    def coefficient(self, profile: YoungProfile):
        return self.prefactor.product_coeff(self.h, [rj - 1 for rj in profile.r])

    def gefp(self, profile: YoungProfile):
        return (-1) ** self.s * self.coefficient(profile)


def _prefactor_series(N, s, delta, t, zero):
    """All integrand factors except h, truncated to caps (N-1, ..., N-1)."""
    caps = [N - 1] * s
    one = zero + 1
    out = TruncatedSeries.constant(caps, one, zero)
    lin = t * t - 2 * delta * t
    for j in range(s):
        power = s - 1 - j                      # 1-based exponent s - j
        for _ in range(power):
            out = out * TruncatedSeries.from_univariate([one, lin], j, caps, zero)
        geo = geometric_inverse_coeffs(s - j, caps[j], one)
        out = out * TruncatedSeries.from_univariate(geo, j, caps, zero)
    for j in range(s):
        for k in range(j + 1, s):
            vdm = TruncatedSeries(caps, zero)
            vdm.set_coeff(tuple(1 if i == j else 0 for i in range(s)), one)
            vdm.set_coeff(tuple(1 if i == k else 0 for i in range(s)), -one)
            out = out * vdm
            pair = TruncatedSeries((caps[j], caps[k]), zero)
            pair.set_coeff((0, 0), one)
            pair.set_coeff((1, 0), -2 * delta * t)
            pair.set_coeff((1, 1), t * t)
            out = out * pair.invert().embed(caps, [j, k])
    return out


_workspace_cache = {}
_WORKSPACE_CACHE_MAX = 64


def residue_workspace(N, s, delta, t, backend=EXACT, *, lam=None, eta=None,
                      allow_nonphysical=True) -> IntegrandSeries:
    """Cached integrand expansion for one (N, s, parameter) combination."""
    if backend == EXACT:
        delta, t = Fraction(delta), Fraction(t)
        key = (N, s, EXACT, delta, t)
        zero = Fraction(0)
    else:
        delta, t = to_float(delta), to_float(t)
        key = (N, s, FLOAT, str(delta), str(t), mp.prec)
        zero = mp.mpf(0)
    hit = _workspace_cache.get(key)
    if hit is not None:
        return hit
    if backend == EXACT:
        tables = build_h_tables(N, s, delta=delta, t=t, backend=EXACT,
                                allow_nonphysical=allow_nonphysical)
    else:
        if lam is None or eta is None:
            lam, eta = lambda_eta_from_delta_t(delta, t)
        tables = build_h_tables(N, s, lam=lam, eta=eta, backend=FLOAT)
    h = h_polynomial(tables, N, s)
    pre = _prefactor_series(N, s, delta, t, zero)
    ws = IntegrandSeries(N, s, pre, h, backend)
    if len(_workspace_cache) >= _WORKSPACE_CACHE_MAX:
        _workspace_cache.pop(next(iter(_workspace_cache)))
    _workspace_cache[key] = ws
    return ws


def gefp_residue(N, profile: YoungProfile, delta=None, t=None, backend=EXACT, *,
                 lam=None, eta=None, allow_nonphysical=True) -> CorrelationResult:
    """GEFP by iterated-residue coefficient extraction.

    Exact backend: (delta, t) rational, h tables from the enumeration
    oracle.  Float backend: h tables from the K-polynomial contraction at
    (lambda, eta), derived from (delta, t) when not given.
    """
    if profile.N != N:
        raise BadIndex(f"profile N={profile.N} does not match N={N}")
    if backend == FLOAT and delta is None:
        if lam is None or eta is None:
            raise Unsupported("float residue engine needs (delta,t) or (lambda,eta)")
        from .params import delta_t_from_trig
        delta, t = delta_t_from_trig(lam, eta)
    if profile.s == 0:
        one = Fraction(1) if backend == EXACT else mp.mpf(1)
        return CorrelationResult(one, "residue", backend, {"N": N, "r": []})
    ws = residue_workspace(N, profile.s, delta, t, backend, lam=lam, eta=eta,
                           allow_nonphysical=allow_nonphysical)
    value = ws.gefp(profile)
    return CorrelationResult(
        value, "residue", backend,
        {"N": N, "r": list(profile.r), "delta": format_scalar(delta),
         "t": format_scalar(t)},
        None if backend == EXACT else mp.prec)


def gefp_determinant_jets(N, profile: YoungProfile, lam, eta) -> CorrelationResult:
    """GEFP from the s x s determinant of K-polynomial derivative operators.

    Operators acting on distinct eps variables commute, so the determinant
    expands into s! substitution patterns contracted against one shared
    multivariate jet of the trailing omega/rho product.
    """
    if profile.N != N:
        raise BadIndex(f"profile N={profile.N} does not match N={N}")
    s = profile.s
    if s == 0:
        return CorrelationResult(mp.mpf(1), "jets", FLOAT, {"N": N, "r": []}, mp.prec)
    if s > JETS_S_CAP:
        raise TooLarge(f"s={s} exceeds the operator-determinant cap {JETS_S_CAP}")
    lam, eta = mp.mpf(lam), mp.mpf(eta)
    r = list(profile.r)
    fns = OmegaRho(lam, eta)
    caps = [N - 1] * s
    zero = mp.mpf(0)
    F = TruncatedSeries.constant(caps, mp.mpf(1), zero)
    for j in range(s):
        for k in range(j + 1, s):
            pair_caps = (caps[j], caps[k])
            rt = TruncatedSeries.from_univariate(fns.rho_tilde(caps[j]), 0, pair_caps, zero)
            rr = TruncatedSeries.from_univariate(fns.rho(caps[k]), 1, pair_caps, zero)
            wt = TruncatedSeries.from_univariate(fns.omega_tilde(caps[j]), 0, pair_caps, zero)
            ww = TruncatedSeries.from_univariate(fns.omega(caps[k]), 1, pair_caps, zero)
            block = rt * rr * (wt * ww - 1)
            F = F * block.invert().embed(caps, [j, k])
    for j in range(s):
        om = fns.omega(caps[j])
        rho = fns.rho(caps[j])
        F = F * TruncatedSeries.from_univariate(
            (om ** (N - r[j])) * (rho ** N), j, caps, zero)

    phi = PhiJet(lam, eta, 2 * (N - 1))
    kcs = [k_polynomial(N - s + j, lam, eta, phi).coeffs for j in range(s)]
    items = []
    for idx, v in F.items():
        fact = mp.mpf(1)
        for m in idx:
            fact *= math.factorial(m)
        items.append((idx, v * fact))
    total = mp.mpf(0)
    for p in permutations(range(s)):
        sgn = perm_sign(list(p))
        sub = mp.mpf(0)
        for idx, tv in items:
            w = tv
            for k, m in enumerate(idx):
                kc = kcs[p[k]]
                if m >= len(kc):
                    w = zero
                    break
                w = w * kc[m]
            sub += w
        total += sgn * sub
    value = (-1) ** s * total
    return CorrelationResult(value, "jets", FLOAT,
                             {"N": N, "r": r, "lambda": format_scalar(lam),
                              "eta": format_scalar(eta)}, mp.prec)


def efp_special_case(N, s, r, engine="residue", *, delta=None, t=None,
                     lam=None, eta=None, backend=EXACT,
                     allow_nonphysical=True) -> CorrelationResult:
    """The equal-position special case: the profile (r, r, ..., r), s times.

    In the integral representation this replaces the mixed monomial
    z_1^(r_1) ... z_s^(r_s) by (z_1 ... z_s)^r; any engine accepts it as an
    ordinary profile.
    """
    if not 1 <= r <= N:
        raise BadIndex(f"r={r} outside 1..{N}")
    profile = YoungProfile(N, (r,) * s)
    if engine == "residue":
        out = gefp_residue(N, profile, delta, t, backend, lam=lam, eta=eta,
                           allow_nonphysical=allow_nonphysical)
    elif engine == "jets":
        out = gefp_determinant_jets(N, profile, lam, eta)
    elif engine == "oracle":
        if delta is not None:
            w = VertexWeights.from_delta_t(delta, t, allow_nonphysical)
        else:
            from .params import weights_from_trig
            w = weights_from_trig(lam, 0, eta, allow_nonphysical)
        out = gefp_oracle(WeightGrid.from_weights(N, w), profile)
    else:
        raise Unsupported(f"unknown engine {engine!r}")
    out.engine = f"efp/{out.engine}"
    return out


# ---------------------------------------------------------------------------
# pole deformation consistency report

@dataclass
class PoleDeformationReport:
    """Operational check of the contour-deformation argument for r_s = N."""

    profile: tuple
    value: object                    # G at the full profile
    reduced_value: object            # G at the profile without its last row
    residue_at_one_matches: bool     # z_s = 1 residue reproduces the reduced case
    pole_contributions_zero: list    # one flag per pole z_s = (2dt z_j - 1)/(t^2 z_j)
    balanced: bool                   # value == reduced_value

    @property
    def ok(self):
        return (self.balanced and self.residue_at_one_matches
                and all(self.pole_contributions_zero))


def _laurent_mul(a, b, cap):
    out = [a[0] * 0] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0 or i > cap:
            continue
        for j, y in enumerate(b):
            if i + j > cap:
                break
            if y != 0:
                out[i + j] += x * y
    return out


def _laurent_inv(a, cap):
    if a[0] == 0:
        raise NotInvertible("series constant term vanished in pole check")
    inv0 = 1 / a[0]
    out = [inv0] + [a[0] * 0] * cap
    for m in range(1, cap + 1):
        acc = a[0] * 0
        for i in range(1, min(m, len(a) - 1) + 1):
            acc += a[i] * out[m - i]
        out[m] = -acc * inv0
    return out


def _laurent_pow(a, p, cap):
    out = [a[0] * 0 + 1]
    for _ in range(p):
        out = _laurent_mul(out, a, cap)
    return out


def pole_deformation_check(N, profile: YoungProfile, delta, t) -> PoleDeformationReport:
    """Verify the deformation bookkeeping for a profile ending at r_s = N.

    (i) the z_s = 1 residue of the integrand reproduces the shorter-profile
    integrand exactly; (ii) each residue at z_s = (2 Delta t z_j - 1) /
    (t^2 z_j), expanded around z_j = 0 with the remaining variables at
    generic rational spectator values, has no coefficients below order r_s,
    so it contributes nothing; together these force the balance
    G(r_s = N) = G(shorter profile), which is asserted as well.

    Exact backend only.
    """
    if not (is_exact_scalar(delta) and is_exact_scalar(t)):
        raise Unsupported("the pole deformation check runs in the exact backend")
    delta, t = Fraction(delta), Fraction(t)
    s = profile.s
    if s == 0 or profile.r[-1] != N:
        raise BadIndex("the check needs a nonempty profile with r_s = N")
    reduced = profile.reduced()
    ws = residue_workspace(N, s, delta, t, EXACT)
    value = ws.gefp(profile)
    if s == 1:
        reduced_value = Fraction(1)
        h_at_one = ws.h.substitute_value(0, Fraction(1))
        res_match = h_at_one.coeff(()) == 1
        return PoleDeformationReport(tuple(profile.r), value, reduced_value,
                                     res_match, [], value == reduced_value)
    ws_red = residue_workspace(N, s - 1, delta, t, EXACT)
    reduced_value = ws_red.gefp(reduced)

    # (i): coefficient extraction of the z_s = 1 residue vs the shorter profile
    h_at_one = ws.h.substitute_value(s - 1, Fraction(1))
    target = tuple(rj - 1 for rj in reduced.r)
    c1 = ws_red.prefactor.product_coeff(h_at_one, target)
    i_red = ws_red.coefficient(reduced)
    res_match = c1 == i_red

    # (ii): each remaining pole, spectators at generic rationals
    pole_zero = []
    for j in range(s - 1):
        pole_zero.append(_pole_contribution_is_zero(ws, profile, j, delta, t))

    return PoleDeformationReport(tuple(profile.r), value, reduced_value,
                                 res_match, pole_zero, value == reduced_value)


def _pole_contribution_is_zero(ws: IntegrandSeries, profile: YoungProfile, j,
                               delta, t, seed=0):
    """Expand the pole-j residue term around z_j = 0 and test low orders.

    Spectator variables take distinct generic rational values; the term is a
    univariate Laurent series in z_j after clearing, and every coefficient
    below order r_s must vanish.
    """
    s = profile.s
    N = profile.N
    r = profile.r
    rs = r[-1]
    lin = t * t - 2 * delta * t
    for attempt in range(seed, seed + 5):
        spect = {jp: Fraction(3 + 2 * jp + attempt, 17 + attempt)
                 for jp in range(s - 1) if jp != j}
        try:
            series, shift = _pole_term_series(ws, N, s, r, j, spect, delta, t, lin)
        except (NotInvertible, ZeroDivisionError):
            continue
        # term = z_j^(-shift) * series; orders below r_s are entries < shift + r_s
        return all(series[m] == 0 for m in range(min(shift + rs, len(series))))
    raise NotInvertible("could not find generic spectator values for the pole check")


def _pole_term_series(ws, N, s, r, j, spect, delta, t, lin):
    """Laurent expansion (as shift + coefficient list) of the pole-j term."""
    two_dt = 2 * delta * t
    t2 = t * t
    cap = (r[j] - 1) + (N + s + 2)
    one = Fraction(1)
    series = [one] + [Fraction(0)] * cap
    shift = 0
    const = Fraction(1)

    def mul_poly(coeffs):
        nonlocal series
        series = _laurent_mul(series, coeffs, cap)

    def mul_inv(coeffs):
        nonlocal series
        series = _laurent_mul(series, _laurent_inv(coeffs, cap), cap)

    # ordinary per-variable factors
    for jp in range(s - 1):
        e1, e2 = s - 1 - jp, s - jp          # exponents of lin-factor and (z-1)^-1
        if jp == j:
            for _ in range(e1):
                mul_poly([one, lin])
            mul_poly(geometric_inverse_coeffs(e2, cap, one))
        else:
            v = spect[jp]
            const *= (lin * v + 1) ** e1
            const /= (v - 1) ** e2
    # pairs among the first s-1 variables
    for a in range(s - 1):
        for b in range(a + 1, s - 1):
            if a == j:
                vb = spect[b]
                mul_poly([-vb, one])
                mul_inv([one, t2 * vb - two_dt])
            elif b == j:
                va = spect[a]
                mul_poly([va, -one])
                mul_inv([one - two_dt * va, t2 * va])
            else:
                va, vb = spect[a], spect[b]
                const *= va - vb
                const /= t2 * va * vb - two_dt * va + 1
    # the z_s parts at the pole z_s = (2 Delta t z_j - 1) / (t^2 z_j)
    shift += 1                                   # residue prefactor 1/(t^2 z_j)
    const /= t2
    mul_poly(_laurent_pow([one, -two_dt, t2], 1, cap))   # (z_j - pole) * t^2 z_j
    shift += 1
    const /= t2
    # 1/z_s^(r_s): (t^2 z_j)^(r_s) / (2 Delta t z_j - 1)^(r_s)
    shift -= r[-1]
    const *= t2 ** r[-1]
    mul_inv(_laurent_pow([-one, two_dt], r[-1], cap))
    # 1/(z_s - 1): t^2 z_j / ((2 Delta t - t^2) z_j - 1)
    shift -= 1
    const *= t2
    mul_inv([-one, two_dt - t2])
    # pairs (j', s): numerator (z_j' - pole), denominator -> (z_j - z_j')/z_j
    for jp in range(s - 1):
        if jp == j:
            continue
        v = spect[jp]
        mul_poly([one, t2 * v - two_dt])
        shift += 1
        const /= t2
        mul_inv([-v, one])
        shift -= 1
    # h with the last variable at the pole, spectators substituted
    hsub = ws.h
    # collapse spectator axes (descending so indices stay valid)
    for jp in sorted(spect, reverse=True):
        hsub = hsub.substitute_value(jp, spect[jp])
    # hsub now depends on (z_j, z_s); axis 0 is z_j, axis 1 is z_s
    hl = [Fraction(0)] * (cap + 1)
    nm1 = N - 1
    for idx, v in hsub.items():
        mj, d = idx
        base = v / t2 ** d
        for q in range(d + 1):
            deg = mj + (nm1 - d) + q
            if deg <= cap:
                hl[deg] += base * math.comb(d, q) * two_dt ** q * (-one) ** (d - q)
    shift += nm1
    series = _laurent_mul(series, hl, cap)
    series = [x * const for x in series]
    # with r_s = N the clearings cancel exactly
    assert shift == N - r[-1]
    return series, shift
