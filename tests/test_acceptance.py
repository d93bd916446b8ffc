"""Desk-scale acceptance suite.

Each test runs one criterion of the verification matrix at its stated
tolerance and prints a pass/fail line per check.  Run with ``pytest -s`` to
see the lines as they complete; the same checks back the CLI command
``gefp-lab verify --level desk``.
"""

from gefp_lab.verify import run_criterion


def _run(number):
    records = run_criterion(number, "desk")
    for record in records:
        print(record.line())
    failed = [r for r in records if not r.passed]
    assert not failed, "\n".join(r.line() for r in failed)


def test_criterion_1_engine_equivalence_exact():
    """Residue extraction equals enumeration with literal rational equality,
    N <= 5, all profiles, four (Delta, t) points including Delta=0, Delta>1."""
    _run(1)


def test_criterion_2_inhomogeneous_equivalence():
    """Recurrence, operator determinant, and per-site oracle agree to 1e-18
    at 128-bit for all N <= 4 profiles at two generic rapidity sets."""
    _run(2)


def test_criterion_3_partition_function_validation():
    """Determinant partition functions match enumeration: inhomogeneous to
    1e-22 at 256-bit (N <= 5), homogeneous at ice/free-fermion points."""
    _run(3)


def test_criterion_4_boundary_layer():
    """Boundary distribution: exact normalization (N <= 6), K-contraction
    agreement (N <= 5, 1e-18), contraction-residue identity for monomials."""
    _run(4)


def test_criterion_5_h_function_properties():
    """h polynomial == det[f_k(z_j)] / Vandermonde at distinct and
    coincident arguments, specialization at 1, and the reflection simple
    zero, all exact for N <= 4."""
    _run(5)


def test_criterion_6_structural_theorems():
    """Vanishing iff r_j < j, boundary-row reduction, and pole-deformation
    balance (N <= 4)."""
    _run(6)


def test_criterion_7_cut_corner_identity():
    """Z_mod * a^|mu| == G * Z_N exactly for all N <= 4 profiles at the ice
    point and an asymmetric rational point."""
    _run(7)


def test_criterion_8_configuration_counts():
    """Counts 1, 2, 7, 42, 429 at a=b=c=1; the naive filter independently
    confirms 1, 2, 7 and the c-vertex parity."""
    _run(8)


def test_criterion_4_quick_names_the_sizes_it_checks():
    names = [r.name for r in run_criterion(4, "quick")]
    assert "N<=4)" in names[0]
    assert "N<=3 " in names[1] and "N <= 3 " in names[2]
