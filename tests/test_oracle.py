import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from gefp_lab import oracle
from gefp_lab.backends import EXACT, FLOAT, to_exact, to_float
from gefp_lab.errors import BadIndex, DivisionByZero, TooLarge, Unsupported
from gefp_lab.hfun import build_h_tables
from gefp_lab.oracle import (WeightGrid, YoungProfile, all_profiles,
                             boundary_distribution_oracle,
                             enumerate_naive, gefp_oracle,
                             modified_domain_partition,
                             partition_function_oracle,
                             reduced_modified_domain_partition,
                             reduced_partition_oracle)
from gefp_lab.params import SpectralData, VertexWeights, delta_t_from_trig
from gefp_lab.verify import EXACT_POINTS
from oracle_reference import (block, forward_sum, grid_distribution, lcm_weights, reference_sum,
                              vertex_row)

ICE = VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1))


def rational_weights(seed):
    rng = random.Random(seed)
    return VertexWeights.from_abc(Fraction(rng.randint(1, 6), rng.randint(1, 3)),
                                  Fraction(rng.randint(1, 6), rng.randint(1, 3)),
                                  Fraction(rng.randint(1, 6), rng.randint(1, 3)))


def test_young_profile_validation():
    p = YoungProfile(6, (2, 3, 5))
    assert p.s == 3 and p.mu == (4, 3, 1) and p.mu_size == 8
    assert YoungProfile(3, ()).s == 0
    with pytest.raises(BadIndex):
        YoungProfile(3, (2, 1))
    with pytest.raises(BadIndex):
        YoungProfile(3, (0, 1))
    with pytest.raises(BadIndex):
        YoungProfile(3, (1, 4))


def test_partition_single_vertex_is_c():
    for w in (ICE, rational_weights(1)):
        grid = WeightGrid.from_weights(1, w)
        assert partition_function_oracle(grid) == w.c


def test_partition_two_by_two_closed_form():
    for seed in (1, 2, 3):
        w = rational_weights(seed)
        grid = WeightGrid.from_weights(2, w)
        expect = w.c2 * (w.a ** 2 + w.b ** 2)
        assert partition_function_oracle(grid) == w.c ** 2 * (w.a ** 2 + w.b ** 2)
        assert reduced_partition_oracle(grid) * w.c2 == expect


def test_partition_counts_at_ice_point():
    expected = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}
    for n, count in expected.items():
        grid = WeightGrid.from_weights(n, ICE)
        assert partition_function_oracle(grid) == count


def test_integer_weights_give_fractions():
    grid = WeightGrid.from_weights(3, VertexWeights.from_abc(1, 1, 1))
    values = [reduced_partition_oracle(grid), enumerate_naive(grid).reduced_sum,
              gefp_oracle(grid, YoungProfile(3, (2,))).value,
              *boundary_distribution_oracle(grid)]
    assert values == [7, 7, Fraction(5, 7), Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)]
    assert all(isinstance(v, Fraction) for v in values)


def test_naive_filter_agrees_with_transfer():
    for n in (1, 2, 3):
        for w in (ICE, rational_weights(n + 10)):
            grid = WeightGrid.from_weights(n, w)
            stats = enumerate_naive(grid)
            assert stats.reduced_sum == reduced_partition_oracle(grid)
            assert stats.parity_ok
    assert enumerate_naive(WeightGrid.from_weights(3, ICE)).config_count == 7


def test_naive_filter_on_inhomogeneous_grid():
    rng = random.Random(4)
    n = 3
    a = [[Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    b = [[Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
         for _ in range(n)]
    grid = WeightGrid(a, b, Fraction(7, 5))
    assert enumerate_naive(grid).reduced_sum == reduced_partition_oracle(grid)


def test_naive_cap():
    with pytest.raises(TooLarge):
        enumerate_naive(WeightGrid.from_weights(4, ICE))


def test_homogeneous_grid_shares_one_row():
    # an oversize N costs O(N) memory until an engine's cap refuses it
    grid = WeightGrid.from_weights(1000, ICE)
    assert grid.N == 1000 and len(grid.a[0]) == 1000
    assert all(row is grid.a[0] for row in grid.a)
    assert all(row is grid.b[0] for row in grid.b)
    with pytest.raises(TooLarge):
        boundary_distribution_oracle(grid)


def test_transfer_weights_convert_each_weight_once(monkeypatch):
    converted = []

    def counted(x):
        converted.append(x)
        return to_exact(x)

    monkeypatch.setattr(oracle, "to_exact", counted)
    with mp.workprec(128):
        w = VertexWeights.from_delta_t(mp.mpf(1) / 3, mp.mpf(3) / 4)
        ints = WeightGrid.from_weights(8, w)._transfer_weights
    assert len(converted) == 3
    a, b, c2, den = ints
    assert Fraction(a[7][0], den) == to_exact(w.a) and Fraction(c2, den ** 2) == to_exact(w.c2)


def test_oracle_cap():
    grid = WeightGrid.from_weights(3, ICE)
    with pytest.raises(TooLarge):
        partition_function_oracle(grid, cap=2)


def test_gefp_forced_and_vanishing():
    grid = WeightGrid.from_weights(2, rational_weights(5))
    assert gefp_oracle(grid, YoungProfile(2, (2,))).value == 1
    assert gefp_oracle(grid, YoungProfile(2, (1, 1))).value == 0


def test_gefp_two_by_two_ice():
    grid = WeightGrid.from_weights(2, ICE)
    assert gefp_oracle(grid, YoungProfile(2, (1,))).value == Fraction(1, 2)


def test_gefp_marked_vs_naive():
    for seed in (3, 8):
        w = rational_weights(seed)
        grid = WeightGrid.from_weights(3, w)
        for prof in all_profiles(3):
            stats = enumerate_naive(grid, marks=list(prof.r))
            expect = stats.reduced_sum / reduced_partition_oracle(grid)
            assert gefp_oracle(grid, prof).value == expect


def test_gefp_positivity_matches_profile_condition():
    w = rational_weights(12)
    for n in (2, 3, 4):
        grid = WeightGrid.from_weights(n, w)
        for prof in all_profiles(n):
            val = gefp_oracle(grid, prof).value
            if all(rj >= j for j, rj in enumerate(prof.r, start=1)):
                assert val > 0
            else:
                assert val == 0


def test_gefp_reduction_at_boundary():
    w = rational_weights(6)
    for n in (2, 3, 4):
        grid = WeightGrid.from_weights(n, w)
        for prof in all_profiles(n):
            if prof.r[-1] == n:
                assert (gefp_oracle(grid, prof).value
                        == gefp_oracle(grid, prof.reduced()).value)


def test_boundary_H_examples():
    assert boundary_distribution_oracle(WeightGrid.from_weights(1, ICE)) == [1]
    grid2 = WeightGrid.from_weights(2, ICE)
    assert boundary_distribution_oracle(grid2) == [Fraction(1, 2), Fraction(1, 2)]
    grid3 = WeightGrid.from_weights(3, ICE)
    assert boundary_distribution_oracle(grid3) == [
        Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)]


def test_boundary_H_closed_form_n2():
    w = rational_weights(7)
    grid = WeightGrid.from_weights(2, w)
    a2, b2 = w.a ** 2, w.b ** 2
    assert boundary_distribution_oracle(grid) == [a2 / (a2 + b2), b2 / (a2 + b2)]


def test_boundary_H_normalization_exact():
    for seed in (1, 9):
        w = rational_weights(seed)
        for n in range(1, 7):
            grid = WeightGrid.from_weights(n, w)
            assert sum(boundary_distribution_oracle(grid)) == 1


def test_boundary_H_position_convention():
    # column 1 is rightmost: b -> 0 freezes the c-vertex at the right edge
    w = VertexWeights.from_abc(Fraction(5), Fraction(1), Fraction(1))
    grid = WeightGrid.from_weights(2, w)
    dist = boundary_distribution_oracle(grid)
    assert dist[0] > dist[1]


def refined_asm(n, k):
    """Zeilberger's refined count A(n, k) of n x n alternating sign matrices."""
    return (comb(n + k - 2, k - 1) * Fraction(factorial(2 * n - k - 1), factorial(n - k))
            * prod(Fraction(factorial(3 * j + 1), factorial(n + j)) for j in range(n - 1)))


def asm(n):
    return prod(Fraction(factorial(3 * j + 1), factorial(n + j)) for j in range(n))


def test_boundary_distribution_closed_forms():
    free_fermion = VertexWeights.from_delta_t(Fraction(0), Fraction(1))
    for n in range(1, 15):
        dist = boundary_distribution_oracle(WeightGrid.from_weights(n, ICE), cap=14)
        assert dist == [refined_asm(n, r) / asm(n) for r in range(1, n + 1)]
        dist = boundary_distribution_oracle(WeightGrid.from_weights(n, free_fermion), cap=14)
        assert dist == [Fraction(comb(n - 1, r - 1), 2 ** (n - 1)) for r in range(1, n + 1)]


def unsplit(grid, **constraints):
    """The plain forward sweep of all N rows: the reference for the split."""
    return forward_sum(grid, **constraints)


def first_row_increments(grid):
    """G((r)) - G((r - 1)) from the unsplit marked transfer, G((0)) = 0."""
    z = unsplit(grid)
    g = [0] + [unsplit(grid, marks=(r,)) for r in range(1, grid.N + 1)]
    return [grid.rounded((g[r] - g[r - 1]) / z) for r in range(1, grid.N + 1)]


def random_grid(rng, n):
    a, b = ([[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(n)] for _ in range(2))
    return WeightGrid(a, b, Fraction(rng.randint(1, 6), rng.randint(1, 4)))


def random_spectral_grid(rng, n):
    spec = SpectralData([rng.uniform(0.6, 1.4) for _ in range(n)],
                        [rng.uniform(-0.2, 0.2) for _ in range(n)], 0.4)
    return WeightGrid.from_spectral(spec)


def test_turned_sweep_matches_marked_transfer_on_inhomogeneous_grids():
    rng = random.Random(11)
    for n in range(1, 6):
        for _ in range(3):
            grid = random_grid(rng, n)
            assert boundary_distribution_oracle(grid) == first_row_increments(grid)


def test_turned_sweep_matches_marked_transfer_on_spectral_grids():
    # every entry is one exact ratio rounded once on both routes
    rng = random.Random(12)
    with mp.workprec(128):
        tol = mp.mpf(2) ** (8 - mp.prec)
        for n in range(1, 5):
            grid = random_spectral_grid(rng, n)
            dist = boundary_distribution_oracle(grid)
            assert dist == first_row_increments(grid)
            assert abs(sum(dist) - 1) <= tol


def split_matches_unsplit(grid):
    # the split sums are the integers of the reduced sums times D^(N(N-1))
    n = grid.N
    scale = grid._transfer_weights[3] ** (n * (n - 1))
    assert oracle._reduced_z(grid) == unsplit(grid) * scale
    for prof in all_profiles(n):
        bottom = oracle._bottom(grid, n - prof.s)
        split = {kind: oracle._contract(oracle._top(grid, kind, prof.r), bottom)
                 for kind in ("marks", "frozen")}
        for kind, value in split.items():
            assert value == unsplit(grid, **{kind: prof.r}) * scale, (n, prof.r, kind)
        # the frozen corner's type-2 vertices on top of the cut domain
        corner = prod(to_exact(grid.a[j][k]) for j, rj in enumerate(prof.r) for k in range(rj, n))
        assert split["frozen"] == unsplit(grid, widths=prof.r) * corner * scale, \
            (n, prof.r, "widths")


def test_split_transfer_matches_the_unsplit_sweep_on_rational_grids():
    rng = random.Random(13)
    for n in range(1, 7):
        split_matches_unsplit(random_grid(rng, n))


def test_split_transfer_matches_the_unsplit_sweep_on_spectral_grids():
    rng = random.Random(14)
    with mp.workprec(128):
        for n in range(1, 6):
            split_matches_unsplit(random_spectral_grid(rng, n))


def random_row_case(rng, n, integers):
    """Row weights and input states for ``_row``: rational or integer
    weights, and states keyed up to two bits above the row."""
    if integers:
        grid = random_spectral_grid(rng, n)
        a, b, c2, _ = grid._transfer_weights
        a, b = a[rng.randrange(n)], b[rng.randrange(n)]
    else:
        a, b = ([Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(2))
        c2 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    keys = rng.sample(range(1 << n + 2), rng.randint(1, min(40, 1 << n + 2)))
    return a, b, c2, {v: rng.randint(-50, 50) for v in keys}


@pytest.mark.parametrize("integers", [False, True], ids=["rational", "dyadic"])
def test_row_equals_the_vertex_by_vertex_row(integers):
    rng = random.Random(16 + integers)
    with mp.workprec(128):
        for n in range(1, 8):
            for _ in range(3):
                a, b, c2, states = random_row_case(rng, n, integers)
                before = dict(states)
                for width in range(n + 1):
                    for mark, frozen in product([None, *range(1, width + 1)], repeat=2):
                        args = a, b, c2, states, width, mark, frozen
                        assert oracle._row(*args) == vertex_row(*args), (n, width, mark, frozen)
                assert states == before


def test_edge_vs_frozen_cross_check_fires(monkeypatch, cold_oracle):
    # a _row that ignores the frozen corner makes the frozen sum Z, on a cold
    # memo and again on the warm one that the first call left
    row = oracle._row

    def without_frozen(a, b, c2, states, width, mark=None, frozen=None):
        return row(a, b, c2, states, width, mark)

    monkeypatch.setattr(oracle, "_row", without_frozen)
    for _ in range(2):
        with pytest.raises(AssertionError, match="disagree"):
            gefp_oracle(WeightGrid.from_weights(4, ICE), YoungProfile(4, (2, 3)))


@pytest.fixture
def row_calls(monkeypatch, cold_oracle):
    """One entry per ``_row`` call on a cold memo."""
    calls, row = [], oracle._row

    def counted(*args, **kwargs):
        calls.append(1)
        return row(*args, **kwargs)

    monkeypatch.setattr(oracle, "_row", counted)
    return calls


@pytest.mark.parametrize("r", [(3,), (3, 5)])
def test_gefp_oracle_sweeps_the_unconstrained_rows_once(row_calls, r):
    n, s, calls = 8, len(r), row_calls
    # cold: the N turned rows (the bottom ones, then Z's level N) and the
    # marked and the frozen s top rows; a fresh grid at the same point reads
    # them all from the memo
    for expected in (n + 2 * s, 0):
        calls.clear()
        gefp_oracle(WeightGrid.from_weights(n, rational_weights(4)), YoungProfile(n, r))
        assert len(calls) == expected


@pytest.mark.parametrize("r", [(3,), (3, 5), (2, 4, 8)])
def test_bottom_sweeps_resume_from_the_deepest_level(row_calls, r):
    n, s, w, calls = 8, len(r), rational_weights(4), row_calls
    # row 1, then the N - 1 turned rows below it
    boundary_distribution_oracle(WeightGrid.from_weights(n, w))
    assert len(calls) == n
    # every shallower bottom sweep is a level already held
    calls.clear()
    for k in range(n):
        oracle._bottom(WeightGrid.from_weights(n, w), k)
    assert not calls
    # so a GEFP on a fresh grid sweeps the last turned row for Z and its
    # marked and frozen top rows on the first call, none after
    for expected in (2 * s + 1, 0):
        calls.clear()
        gefp_oracle(WeightGrid.from_weights(n, w), YoungProfile(n, r))
        assert len(calls) == expected


def test_h_tables_sweep_the_n_grid_once(row_calls):
    # every size is a block of the N grid: its N - 1 turned rows, then one
    # first row per size
    for n in range(1, 9):
        for s in range(1, n + 1):
            clear_memos()
            row_calls.clear()
            build_h_tables(n, s, Fraction(1, 3), Fraction(3, 4))
            assert len(row_calls) == (n - 1) + s, (n, s)


def test_gefp_oracle_sweeps_each_prefix_once(row_calls):
    # in table order every prefix of a profile is a profile met before, so
    # each adds one marked and one frozen row; the first call also sweeps the
    # N turned rows, the last one for Z.  All 2 x 923 prefixes fit under the
    # bound at N = 6.
    n, w = 6, rational_weights(4)
    profiles = all_profiles(n)
    for prof in profiles:
        gefp_oracle(WeightGrid.from_weights(n, w), prof)
    assert len(profiles) == 923
    assert len(row_calls) == 2 * 923 + n
    assert len(oracle._prefixes) == 2 * 923 <= oracle._PREFIX_STATES // comb(6, 3)


def test_gefp_oracle_on_an_empty_profile_sweeps_no_top_row(row_calls):
    # the N turned rows hold Z, and both top chains are the top boundary
    n, w = 5, rational_weights(4)
    for expected in (n, 0):
        row_calls.clear()
        assert gefp_oracle(WeightGrid.from_weights(n, w), YoungProfile(n, ())).value == 1
        assert len(row_calls) == expected
    assert not oracle._prefixes


def test_warm_gefp_oracle_sweeps_no_row_and_builds_one_fraction(row_calls, monkeypatch):
    # a fresh grid at a warm point reads every sum from the memo, and the
    # sums stay integers until the value's one Fraction
    n, w, prof = 8, rational_weights(4), YoungProfile(8, (3, 5))
    first = gefp_oracle(WeightGrid.from_weights(n, w), prof).value
    row_calls.clear()
    built, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    again = gefp_oracle(WeightGrid.from_weights(n, w), prof).value
    assert len(built) == 1 and not row_calls and again == first


def test_boundary_distribution_refuses_n0_before_any_sweep(row_calls):
    grid = WeightGrid.from_weights(0, ICE)
    with pytest.raises(BadIndex, match="N=0"):
        boundary_distribution_oracle(grid)
    assert not row_calls
    assert reduced_partition_oracle(grid) == 1


def test_grids_at_one_dyadic_point_share_one_key_and_no_other_point_does(monkeypatch):
    # float weights and the exact dyadic rationals they hold: one key, so
    # one set of sweeps; another N or point never gets that key, even once
    # the key memo has evicted the point and handed out new keys
    monkeypatch.setattr(oracle, "_point_keys", {})
    with mp.workprec(128):
        w = VertexWeights.from_delta_t(mp.mpf(1) / 3, mp.mpf(3) / 4)
        dyadic = VertexWeights(*(to_exact(x) for x in (w.a, w.b, w.c2)))
        grids = [WeightGrid.from_weights(8, x) for x in (w, dyadic)]
    assert [g.backend for g in grids] == [FLOAT, EXACT]
    key = grids[0]._point_key
    assert grids[1]._point_key == key
    others = {WeightGrid.from_weights(7, dyadic)._point_key}
    for k in range(1, oracle._MEMO_MAX + 1):
        abc = VertexWeights.from_abc(Fraction(k), Fraction(1), Fraction(1))
        others.add(WeightGrid.from_weights(8, abc)._point_key)
    assert len(oracle._point_keys) == oracle._MEMO_MAX
    assert grids[1]._transfer_weights not in oracle._point_keys
    others.add(WeightGrid.from_weights(8, dyadic)._point_key)
    assert len(others) == oracle._MEMO_MAX + 2 and key not in others


@pytest.mark.parametrize("kind", ["rational", "spectral"])
def test_block_distributions_equal_the_block_as_its_own_grid(kind):
    # every bottom-left n x n block read off the N grid's turned levels
    rng = random.Random(20)
    with mp.workprec(128):
        for big in range(1, 9):
            grid = random_grid(rng, big) if kind == "rational" else random_spectral_grid(rng, big)
            for n in range(1, big + 1):
                h, z = oracle._boundary_sums(grid, n)
                assert sum(h) == z
                dist = [grid.rounded(Fraction(x, z)) for x in h]
                assert bits(dist) == bits(grid_distribution(block(grid, n))), (big, n)


def chained_levels(grid):
    """The turned levels by a plain chained ``_row`` sweep, nothing shifted."""
    n = grid.N
    a, b, c2, _ = grid._transfer_weights
    levels = [{(1 << n) - 1: 1}]
    for j in reversed(range(n)):
        levels.append(oracle._row(a[j][::-1], b[j][::-1], c2, levels[-1], n))
    return levels


def test_turned_levels_shed_their_common_power_of_two_exactly(cold_oracle):
    # every level shifted back by its power of two is the chained sweep, and
    # every level with a nonzero weight keeps an odd one; the grid at the
    # dyadic rationals of 128-bit (1/3, 3/4), as the residue engine builds
    # it, and a spectral float grid leave powers of two to shed, exact
    # (1/3, 3/4) none, and there the parity test stops at the first weight
    # of each level
    with mp.workprec(128):
        point = (to_exact(to_float(Fraction(1, 3))), to_exact(to_float(Fraction(3, 4))))
        spectral = random_spectral_grid(random.Random(19), 6)
    dyadic = WeightGrid.from_weights(7, VertexWeights.from_delta_t(*point))
    exact = WeightGrid.from_weights(7, VertexWeights.from_delta_t(Fraction(1, 3),
                                                                  Fraction(3, 4)))
    for grid in (dyadic, spectral, exact):
        levels = oracle._levels(grid, grid.N)
        assert [{v: w << e for v, w in states.items()} for states, e in levels] == \
            chained_levels(grid)
        assert all(any(w & 1 for w in states.values()) for states, _ in levels
                   if any(states.values()))
        shifts = [e for _, e in levels]
        if grid is exact:
            assert not any(shifts)
            assert all(next(iter(states.values())) & 1 for states, _ in levels)
        else:
            assert any(shifts)
    assert oracle._levels(dyadic, 7)[6][1] == 1152


def clear_memos():
    oracle._sweeps.clear()
    oracle._prefixes.clear()


def memo_keys():
    return set(oracle._sweeps) | set(oracle._prefixes)


def oracle_calls(n, w):
    """Every output of the memo-reading oracle functions at size n, as calls
    that each build a fresh grid at w."""
    def grid():
        return WeightGrid.from_weights(n, w)

    calls = [lambda: reduced_partition_oracle(grid()),
             lambda: boundary_distribution_oracle(grid())]
    for prof in all_profiles(n):
        calls += [lambda p=prof: gefp_oracle(grid(), p).value,
                  lambda p=prof: reduced_modified_domain_partition(grid(), p)]
    return calls


def bits(value):
    """An exact value as it is, a float by its mpf tuple, entry-wise in a list."""
    if isinstance(value, list):
        return [bits(x) for x in value]
    return getattr(value, "_mpf_", value)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("delta, t", EXACT_POINTS, ids=[f"{d},{t}" for d, t in EXACT_POINTS])
def test_warm_memo_gives_the_cold_values(cold_oracle, backend, delta, t):
    # cold: each call after a clear; warm: the calls in order on one memo,
    # so Z and the bottom sweeps that one function stored serve the others
    with mp.workprec(128):
        if backend == FLOAT:
            delta, t = to_float(delta), to_float(t)
        w = VertexWeights.from_delta_t(delta, t, allow_nonphysical=True)
        for n in range(1, 7):
            calls = oracle_calls(n, w)
            cold = []
            for call in calls:
                clear_memos()
                cold.append(bits(call()))
            assert [bits(call()) for call in calls] == cold, n


def memo_run(grid):
    """The memo-reading sums on grid, checked against the unsplit sweep; the
    memo keys they added."""
    before = memo_keys()
    z = reduced_partition_oracle(grid)
    assert z == unsplit(grid)
    assert boundary_distribution_oracle(grid) == first_row_increments(grid)
    for prof in all_profiles(grid.N):
        assert gefp_oracle(grid, prof).value == unsplit(grid, marks=prof.r) / z
    return memo_keys() - before


def test_grids_that_differ_in_one_row_share_no_memo_entry(cold_oracle):
    rng = random.Random(15)
    for n in range(1, 6):
        grid = random_grid(rng, n)
        for j in range(n):
            a = [list(row) for row in grid.a]
            a[j][rng.randrange(n)] += 1
            other = WeightGrid(a, grid.b, grid.c2)
            clear_memos()
            mine = memo_run(grid)
            memo_run(other)                 # right values next to grid's entries
            clear_memos()
            assert mine.isdisjoint(memo_run(other)), (n, j)


def test_vanishing_z_raises_on_every_call(cold_oracle):
    w = VertexWeights.from_delta_t(Fraction(4), Fraction(1), allow_nonphysical=True)
    for _ in range(2):
        with pytest.raises(DivisionByZero, match="Z_3"):
            gefp_oracle(WeightGrid.from_weights(3, w), YoungProfile(3, (2,)))
    assert reduced_partition_oracle(WeightGrid.from_weights(3, w)) == 0


def test_memo_holds_at_most_its_bound(cold_oracle):
    for k in range(1, 100):
        grid = WeightGrid.from_weights(2, VertexWeights.from_abc(Fraction(k), Fraction(1),
                                                                 Fraction(1)))
        gefp_oracle(grid, YoungProfile(2, (2,)))
        assert len(oracle._sweeps) <= oracle._MEMO_MAX
    assert len(oracle._sweeps) == oracle._MEMO_MAX


def test_prefix_memo_holds_at_most_its_bound(cold_oracle, monkeypatch):
    # at N = 2 an entry holds at most C(2, 1) states, so 4,096 x 2 states
    # are 4,096 entries; each grid adds two marked and two frozen prefixes,
    # so 1,099 grids pass them
    monkeypatch.setattr(oracle, "_PREFIX_STATES", 4096 * comb(2, 1))
    for k in range(1, 1100):
        grid = WeightGrid.from_weights(2, VertexWeights.from_abc(Fraction(k), Fraction(1),
                                                                 Fraction(1)))
        gefp_oracle(grid, YoungProfile(2, (1, 2)))
        assert len(oracle._prefixes) <= 4096
    assert len(oracle._prefixes) == 4096


def test_prefix_memo_bound_shrinks_with_the_entry_size(cold_oracle, monkeypatch):
    # 3 x C(10, 5) states are 37 entries at N = 6 and 3 at N = 10: a memo
    # filled at N = 6 is cut to the N = 10 bound by the first N = 10
    # insertion, and no insertion at N = 10 leaves it above either bound
    monkeypatch.setattr(oracle, "_PREFIX_STATES", 3 * comb(10, 5))
    for prof in all_profiles(6, 3)[:40]:
        gefp_oracle(WeightGrid.from_weights(6, rational_weights(4)), prof)
    assert len(oracle._prefixes) == 37

    class Watched(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            assert len(self) <= 3
            assert sum(map(len, self.values())) <= 3 * comb(10, 5)

    monkeypatch.setattr(oracle, "_prefixes", Watched(oracle._prefixes))
    grid = WeightGrid.from_weights(10, rational_weights(4))
    for prof in all_profiles(10, 3)[:12]:
        gefp_oracle(grid, prof, cap=10)
    assert len(oracle._prefixes) == 3


def test_float_oracle_is_the_exact_ratio_rounded_once():
    # the exact oracle on the dyadic rationals that the float weights hold
    with mp.workprec(128):
        for delta, t in ((mp.mpf(1) / 3, mp.mpf(3) / 4), (mp.mpf("0.41"), mp.mpf("1.3"))):
            w = VertexWeights.from_delta_t(delta, t)
            dyadic = VertexWeights(*(Fraction(*to_rational(x._mpf_)) for x in (w.a, w.b, w.c2)))
            for n in range(1, 7):
                grid, exact = (WeightGrid.from_weights(n, x) for x in (w, dyadic))
                assert (reduced_partition_oracle(grid)
                        == to_float(reduced_partition_oracle(exact)))
                for prof in all_profiles(n):
                    assert (gefp_oracle(grid, prof).value
                            == to_float(gefp_oracle(exact, prof).value)), (n, prof.r)


def clears(grid, scale):
    """aD, bD and c^2 D^2 are all integers at D = scale."""
    weights = [to_exact(x) * scale for row in grid.a + grid.b for x in row]
    return all(x.denominator == 1 for x in (*weights, to_exact(grid.c2) * scale ** 2))


def scale_cases():
    """(grid, dyadic): homogeneous float grids at 64, 128 and 256 bits and
    the exact grids at their dyadic (Delta, t), as the residue engine builds
    them, spectral grids and random rational grids."""
    rng = random.Random(18)
    cases = []
    for prec in (64, 128, 256):
        with mp.workprec(prec):
            for delta, t in ((mp.mpf(1) / 3, mp.mpf(3) / 4),
                             delta_t_from_trig(mp.mpf("1.1"), mp.mpf("0.35"))):
                for w in (VertexWeights.from_delta_t(delta, t),
                          VertexWeights.from_delta_t(to_exact(delta), to_exact(t))):
                    cases.append((WeightGrid.from_weights(4, w), True))
            cases += [(random_spectral_grid(rng, n), True) for n in (2, 4)]
    return cases + [(random_grid(rng, n), False) for n in range(1, 6) for _ in range(4)]


def test_transfer_scale_is_the_least_that_clears_every_weight():
    for grid, dyadic in scale_cases():
        a, b, c2, den = grid._transfer_weights
        assert clears(grid, den) and lcm_weights(grid)[3] % den == 0
        assert [[Fraction(x, den) for x in row] for row in a + b] == \
            [[to_exact(x) for x in row] for row in grid.a + grid.b]
        assert Fraction(c2, den * den) == to_exact(grid.c2)
        if dyadic:
            assert den > 1 and not clears(grid, Fraction(den, 2))


def test_transfer_scale_clears_a_weight_that_is_also_c2():
    # c^2 is the same object as every a: its denominator as a weight counts
    x = Fraction(1, 4)
    grid = WeightGrid([(x,) * 3] * 3, [(Fraction(1, 2),) * 3] * 3, x)
    assert grid._transfer_weights[3] == 4
    assert boundary_distribution_oracle(grid) == [Fraction(5, 121), Fraction(36, 121),
                                                  Fraction(80, 121)]


@pytest.mark.parametrize("prec", [64, 128])
def test_oracle_equals_the_lcm_scaled_vertex_sweep_at_dyadic_points(cold_oracle, prec):
    # float grids and the exact grids at their dyadic (Delta, t): every H
    # table and every GEFP at N <= 5, sampled GEFPs at N = 6, 7
    rng = random.Random(19)
    with mp.workprec(prec):
        delta, t = delta_t_from_trig(mp.mpf("1.1"), mp.mpf("0.35"))
        for w in (VertexWeights.from_delta_t(delta, t),
                  VertexWeights.from_delta_t(to_exact(delta), to_exact(t))):
            for n in range(1, 8):
                grid = WeightGrid.from_weights(n, w)
                z = reference_sum(grid)
                marked = [0] + [reference_sum(grid, (r,)) for r in range(1, n + 1)]
                assert boundary_distribution_oracle(grid) == [
                    grid.rounded((marked[r] - marked[r - 1]) / z) for r in range(1, n + 1)]
                profiles = all_profiles(n)
                for prof in profiles if n <= 5 else rng.sample(profiles, 12):
                    assert (gefp_oracle(grid, prof).value
                            == grid.rounded(reference_sum(grid, prof.r) / z)), (n, prof.r)


def test_modified_domain_identities():
    for w in (ICE, rational_weights(2)):
        for n in (1, 2, 3):
            grid = WeightGrid.from_weights(n, w)
            zn = reduced_partition_oracle(grid)
            full = YoungProfile(n, (n,))
            assert (reduced_modified_domain_partition(grid, full) == zn)
            for prof in all_profiles(n):
                zmod = reduced_modified_domain_partition(grid, prof)
                g = gefp_oracle(grid, prof).value
                assert zmod * w.a ** prof.mu_size == g * zn


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_cut_domain_is_the_staircase_sweep(backend):
    # the frozen chain over a^|mu| against the rows of widths r swept
    # forward; a != 1, so a wrong power of a shows
    with mp.workprec(128):
        for seed in (1, 5):
            w = rational_weights(seed)
            if backend == FLOAT:
                w = VertexWeights.from_abc(*(to_float(x) / 3 for x in (w.a, w.b, w.c)))
            assert w.a != 1
            for n in range(1, 7):
                grid = WeightGrid.from_weights(n, w)
                for prof in all_profiles(n):
                    assert (bits(reduced_modified_domain_partition(grid, prof))
                            == bits(grid.rounded(forward_sum(grid, widths=prof.r)))), \
                        (n, prof.r)


def test_cut_domain_after_gefp_oracle_sweeps_no_row(row_calls):
    # the cut domain reads the frozen chain and the bottom level that the
    # GEFP of its profile left in the memo
    n, w = 6, rational_weights(4)
    for prof in all_profiles(n):
        gefp_oracle(WeightGrid.from_weights(n, w), prof)
        row_calls.clear()
        reduced_modified_domain_partition(WeightGrid.from_weights(n, w), prof)
        assert not row_calls, prof.r


def test_modified_domain_ice_example():
    grid = WeightGrid.from_weights(2, ICE)
    assert modified_domain_partition(grid, YoungProfile(2, (1,))) == 1


def test_modified_domain_rejects_inhomogeneous():
    with mp.workprec(64):
        spec = SpectralData([0.3, 0.7], [0.1, 0.5], 0.4)
        grid = WeightGrid.from_spectral(spec)
        with pytest.raises(Unsupported):
            modified_domain_partition(grid, YoungProfile(2, (1,)))


def test_modified_domain_rejects_profile_of_other_size():
    grid = WeightGrid.from_weights(3, ICE)
    for fn in (modified_domain_partition, reduced_modified_domain_partition):
        with pytest.raises(BadIndex):
            fn(grid, YoungProfile(2, (1,)))


def test_partition_requires_concrete_c():
    w = VertexWeights.from_delta_t(Fraction(0), Fraction(1))
    grid = WeightGrid.from_weights(2, w)
    with pytest.raises(Unsupported):
        partition_function_oracle(grid)
    assert reduced_partition_oracle(grid) == w.a ** 2 + w.b ** 2


def test_all_profiles_count():
    # weak compositions: C(N + s - 1, s) profiles of length s
    assert len(all_profiles(5)) == 5 + 15 + 35 + 70 + 126
    assert len(all_profiles(4, 2)) == 10
