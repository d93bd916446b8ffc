"""Acceptance and property suites, shared by pytest and the CLI.

Each criterion function returns CheckRecord objects, at either the full
desk-scale matrix or a trimmed quick variant.
All tolerances are fixed here, not configurable.
"""

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp

from .backends import EXACT
from .gefp import gefp_residue
from .hfun import (boundary_H_table_via_K, build_h_tables, h_multivariate,
                   h_polynomial, kfint_check, pole_deformation_check, reflect_substitute)
from .ik import (gefp_inhom_determinant, gefp_inhom_recurrence,
                 homogeneous_partition_jets, ik_partition)
from .algebra import UniPoly
from .oracle import (WeightGrid, all_profiles, boundary_distribution_oracle,
                     enumerate_naive, gefp_oracle, modified_domain_partition,
                     partition_function_oracle, reduced_partition_oracle)
from .params import SpectralData, VertexWeights

# rational parameter grid: includes the free-fermion line and Delta > 1
EXACT_POINTS = (
    (Fraction(1, 2), Fraction(1)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(2, 3)),
    (Fraction(3, 2), Fraction(1, 2)),
)

# generic rapidity sets, chosen away from resonances lambda_i - lambda_j = +-2 eta
SPECTRAL_SETS = (
    {"eta": "0.41", "lam": ("0.31", "0.73", "1.17", "0.55"),
     "nu": ("0.11", "0.52", "0.26", "0.91")},
    {"eta": "0.29", "lam": ("0.23", "0.97", "0.49", "1.33"),
     "nu": ("0.06", "0.61", "0.37", "1.03")},
)


class CheckRecord(NamedTuple):
    criterion: str
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        text = f"[{tag}] {self.criterion}: {self.name}"
        if self.detail and not self.passed:
            text += f"  ({self.detail})"
        return text


def _rel_err(x, y):
    scale = max(abs(x), abs(y), mp.mpf(1))
    return abs(x - y) / scale


def criterion_1(level="desk"):
    """Exact engine equivalence: residue extraction vs enumeration."""
    n_max = 5 if level == "desk" else 3
    points = EXACT_POINTS if level == "desk" else EXACT_POINTS[:2]
    records = []
    for delta, t in points:
        w = VertexWeights.from_delta_t(delta, t, allow_nonphysical=True)
        bad = total = 0
        for n in range(1, n_max + 1):
            grid = WeightGrid.from_weights(n, w)
            for prof in all_profiles(n):
                total += 1
                lhs, rhs = gefp_residue(n, prof, delta, t, EXACT), gefp_oracle(grid, prof)
                bad += lhs.value != rhs.value
        records.append(CheckRecord(
            "criterion-1", f"residue == oracle (exact) at delta={delta}, t={t}, "
            f"N<={n_max} ({total} profiles)", bad == 0, f"{bad} mismatches"))
    return records


def criterion_2(level="desk"):
    """Inhomogeneous equivalence: recurrence == operator determinant == oracle."""
    n_max = 4 if level == "desk" else 3
    tol = mp.mpf("1e-18")
    records = []
    with mp.workprec(128):
        for si, data in enumerate(SPECTRAL_SETS, start=1):
            worst = mp.mpf(0)
            for n in range(1, n_max + 1):
                spec = SpectralData(data["lam"][:n], data["nu"][:n], data["eta"])
                grid = WeightGrid.from_spectral(spec)
                for prof in all_profiles(n):
                    rec = gefp_inhom_recurrence(spec, prof)
                    detv = gefp_inhom_determinant(spec, prof)
                    orc = gefp_oracle(grid, prof).value
                    worst = max(worst, _rel_err(rec, detv), _rel_err(rec, orc))
            records.append(CheckRecord(
                "criterion-2", f"inhomogeneous engines agree, set {si}, N<={n_max} "
                f"(rel err <= 1e-18 at 128-bit)", worst <= tol, f"worst {worst}"))
    return records


def criterion_3(level="desk"):
    """Partition-function validation of the determinant formulas."""
    n_max = 5 if level == "desk" else 3
    tol = mp.mpf("1e-22")
    records = []
    with mp.workprec(256):
        worst = mp.mpf(0)
        data = SPECTRAL_SETS[0]
        for n in range(1, n_max + 1):
            lams = [mp.mpf(x) for x in data["lam"]] + [mp.mpf("1.44")]
            nus = [mp.mpf(x) for x in data["nu"]] + [mp.mpf("0.71")]
            spec = SpectralData(lams[:n], nus[:n], data["eta"])
            zi = ik_partition(spec)
            zo = partition_function_oracle(WeightGrid.from_spectral(spec))
            worst = max(worst, _rel_err(zi, zo))
        records.append(CheckRecord(
            "criterion-3", f"ik_partition == oracle, N<={n_max} "
            "(rel err <= 1e-22 at 256-bit)", worst <= tol, f"worst {worst}"))
        worst = mp.mpf(0)
        ice = (mp.pi / 2, mp.pi / 6)
        ff = (mp.pi / 2, mp.pi / 4)
        for lam, eta in (ice, ff):
            for n in range(1, n_max + 1):
                zj = homogeneous_partition_jets(n, lam, eta)
                grid = WeightGrid.from_weights(
                    n, VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta),
                                              mp.sin(2 * eta)))
                zo = partition_function_oracle(grid)
                worst = max(worst, _rel_err(zj, zo))
        z3 = homogeneous_partition_jets(3, *ice)
        ref = 7 * (mp.sqrt(3) / 2) ** 9
        worst = max(worst, _rel_err(z3, ref))
        records.append(CheckRecord(
            "criterion-3", f"homogeneous jets == oracle at ice and free-fermion "
            f"points, N<={n_max}, and Z_3(ice) = 7*(sqrt(3)/2)^9",
            worst <= tol, f"worst {worst}"))
    return records


def criterion_4(level="desk"):
    """Boundary layer: normalization, K-contraction route, residue identity."""
    n_max = 5 if level == "desk" else 3
    records = []
    w = VertexWeights.from_abc(Fraction(2), Fraction(1), Fraction(2))
    ok = True
    for n in range(1, n_max + 2):
        grid = WeightGrid.from_weights(n, w)
        ok = ok and sum(boundary_distribution_oracle(grid)) == 1
    records.append(CheckRecord(
        "criterion-4", f"sum_r H_N^(r) == 1 exactly (exact backend, N<={n_max + 1})", ok))
    tol = mp.mpf("1e-18")
    with mp.workprec(128):
        lam, eta = mp.mpf("1.1"), mp.mpf("0.35")
        wf = VertexWeights.from_abc(mp.sin(lam + eta), mp.sin(lam - eta), mp.sin(2 * eta))
        worst = mp.mpf(0)
        for n in range(1, n_max + 1):
            orc = boundary_distribution_oracle(WeightGrid.from_weights(n, wf))
            for a, b in zip(boundary_H_table_via_K(n, lam, eta), orc):
                worst = max(worst, _rel_err(a, b))
        records.append(CheckRecord(
            "criterion-4", f"boundary H via K-contraction == oracle, N<={n_max} "
            "(rel err <= 1e-18)", worst <= tol, f"worst {worst}"))
        worst = mp.mpf(0)
        for n in range(1, n_max + 1):
            for m in range(n + 1):
                f = UniPoly([mp.mpf(0)] * m + [mp.mpf(1)])
                lhs, rhs = kfint_check(n, f, lam, eta)
                worst = max(worst, abs(lhs - rhs) / max(mp.mpf(1), abs(lhs)))
        records.append(CheckRecord(
            "criterion-4", f"residue identity for f = z^m, m <= N <= {n_max} "
            "(rel err <= 1e-18)", worst <= tol, f"worst {worst}"))
    return records


def criterion_5(level="desk"):
    """h-function properties: pointwise value, specialization, simple zero."""
    n_max = 4 if level == "desk" else 3
    records = []
    delta, t = Fraction(1, 3), Fraction(3, 4)
    value_ok = at1_ok = zero_ok = True
    for n in range(2, n_max + 1):
        for s in range(2, n + 1):
            tables = build_h_tables(n, s, delta, t)
            h = h_polynomial(tables, n, s)
            # value at distinct arguments, then with a coincident pair
            point = [Fraction(-3, 5), Fraction(2, 7), Fraction(5, 4), Fraction(-1, 3)][:s]
            for z in (point, point[:1] + point[:-1]):
                value = h
                for v in reversed(range(s)):
                    value = value.substitute_value(v, z[v])
                value_ok &= value.coeff(()) == h_multivariate(tables, n, s, z)
            # specialization at z_s = 1; h_{n,s-1} reads sizes n..n-s+2 of the same tables
            h_red = h_polynomial(tables, n, s - 1)
            spec = h.substitute_value(s - 1, Fraction(1))
            at1_ok &= (all(spec.coeff(idx) == val for idx, val in h_red.items())
                       and all(h_red.coeff(idx) == val for idx, val in spec.items()))
            # simple zero under the reflection substitution
            for j in range(s - 1):
                refl = reflect_substitute(h, j, delta, t)
                zero_ok &= not any(idx[j] <= n - 1 and v != 0 for idx, v in refl.items())
    records.append(CheckRecord(
        "criterion-5", f"h polynomial == det[f_k(z_j)] / Vandermonde at distinct "
        f"and coincident arguments, N<={n_max}", value_ok))
    records.append(CheckRecord(
        "criterion-5", f"h(..., 1) equals the one-fewer-variable h exactly, "
        f"N<={n_max}", at1_ok))
    records.append(CheckRecord(
        "criterion-5", f"reflection substitution has a simple zero, N<={n_max}",
        zero_ok))
    return records


def criterion_6(level="desk"):
    """Structural theorems: vanishing, boundary reduction, pole balance.

    The EFP, the rectangular profile (r, ..., r), is an ordinary profile:
    criterion 1 compares it with the oracle along with every other one.
    """
    n_max_vanish = 5 if level == "desk" else 3
    n_max_pole = 4 if level == "desk" else 3
    records = []
    delta, t = Fraction(1, 2), Fraction(1)
    vanish_ok = reduce_ok = True
    for n in range(1, n_max_vanish + 1):
        for prof in all_profiles(n):
            val = gefp_residue(n, prof, delta, t, EXACT).value
            vanish_ok &= prof.blocked == (val == 0)
            if prof.r[-1] == n:
                reduce_ok &= val == gefp_residue(n, prof.reduced(), delta, t, EXACT).value
    records.append(CheckRecord(
        "criterion-6", f"G == 0 exactly iff some r_j < j, N<={n_max_vanish}",
        vanish_ok))
    records.append(CheckRecord(
        "criterion-6", f"G(r_s = N) equals the shorter-profile value, "
        f"N<={n_max_vanish}", reduce_ok))
    pole_ok = True
    delta2, t2 = Fraction(1, 3), Fraction(3, 4)
    for n in range(1, n_max_pole + 1):
        for prof in all_profiles(n):
            if prof.r[-1] == n:
                pole_ok &= pole_deformation_check(n, prof, delta2, t2).ok
    records.append(CheckRecord(
        "criterion-6", f"pole deformation balanced for all r_s = N profiles, "
        f"N<={n_max_pole}", pole_ok))
    return records


def criterion_7(level="desk"):
    """Cut-corner domain identity: Z_mod * a^|mu| == G * Z_N exactly."""
    n_max = 4 if level == "desk" else 3
    records = []
    points = (VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1)),
              VertexWeights.from_abc(Fraction(2), Fraction(1), Fraction(2)))
    for w in points:
        ok = True
        for n in range(1, n_max + 1):
            grid = WeightGrid.from_weights(n, w)
            zn = partition_function_oracle(grid)
            for prof in all_profiles(n):
                zmod = modified_domain_partition(grid, prof)
                ok &= zmod * w.a ** prof.mu_size == gefp_oracle(grid, prof).value * zn
        records.append(CheckRecord(
            "criterion-7", f"Z_mod * a^|mu| == G * Z_N at a={w.a}, b={w.b}, "
            f"c={w.c}, N<={n_max}", ok))
    return records


def criterion_8(level="desk"):
    """Configuration counts at a = b = c = 1 and the naive cross-check."""
    n_max = 5 if level == "desk" else 3
    expected = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}
    w = VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1))
    counts = {n: reduced_partition_oracle(WeightGrid.from_weights(n, w))
              for n in range(1, n_max + 1)}
    ok = all(counts[n] == expected[n] for n in counts)
    detail = [f"Z_{n}={z}" for n, z in counts.items()]
    wanted = ", ".join(str(expected[n]) for n in range(1, n_max + 1))
    records = [CheckRecord(
        "criterion-8", f"configuration counts {wanted} for N = 1..{n_max}",
        ok, " ".join(detail))]
    naive_ok = True
    for n in range(1, 4):
        stats = enumerate_naive(WeightGrid.from_weights(n, w))
        naive_ok &= stats.config_count == expected[n] and stats.parity_ok
    records.append(CheckRecord(
        "criterion-8", "naive ice-rule filter confirms 1, 2, 7 and the "
        "c-vertex parity", naive_ok))
    return records


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
}


def run_criterion(number, level="desk"):
    return CRITERIA[number](level)
