import copy
import pickle
import random
from fractions import Fraction

import pytest
from mpmath import mp

from gefp_lab.errors import BadIndex, DivisionByZero, NonphysicalWeights, Unsupported
from gefp_lab.oracle import YoungProfile
from gefp_lab.params import (SpectralData, VertexWeights, delta_t_from_trig, exact_sqrt,
                             lambda_eta_from_delta_t, weights_from_trig)


def delta_t_from_weights(w):
    """(Delta, t) = ((a^2 + b^2 - c^2) / (2ab), b/a), in the input backend."""
    return (w.a * w.a + w.b * w.b - w.c2) / (2 * w.a * w.b), w.b / w.a


def test_delta_t_direct_substitution():
    w = VertexWeights.from_abc(Fraction(1), Fraction(1), Fraction(1))
    assert delta_t_from_weights(w) == (Fraction(1, 2), 1)

    w = VertexWeights.from_abc(Fraction(2), Fraction(1), Fraction(2))
    assert delta_t_from_weights(w) == (Fraction(1, 4), Fraction(1, 2))


def test_delta_t_free_fermion_float():
    with mp.workprec(128):
        w = VertexWeights.from_abc(mp.mpf(1), mp.mpf(1), mp.sqrt(2))
        delta, t = delta_t_from_weights(w)
        assert abs(delta) < mp.mpf("1e-36")
        assert t == 1


def test_zero_weight_rejected():
    with pytest.raises(DivisionByZero):
        VertexWeights.from_abc(Fraction(0), Fraction(1), Fraction(1))


def test_weights_from_trig_symmetric_points():
    with mp.workprec(128):
        w = weights_from_trig(mp.pi / 2, 0, mp.pi / 6)
        root3_2 = mp.sqrt(3) / 2
        for val in (w.a, w.b, w.c):
            assert abs(val - root3_2) < mp.mpf("1e-36")
        w = weights_from_trig(mp.pi / 2, 0, mp.pi / 4)
        assert abs(w.a - mp.sqrt(2) / 2) < mp.mpf("1e-36")
        assert abs(w.c - 1) < mp.mpf("1e-36")
        assert abs(delta_t_from_weights(w)[0]) < mp.mpf("1e-36")


def test_weights_from_trig_nonphysical_rejected_and_allowed():
    with mp.workprec(128):
        with pytest.raises(NonphysicalWeights):
            weights_from_trig(mp.mpf("0.1"), 0, mp.pi / 6)
        w = weights_from_trig(mp.mpf("0.1"), 0, mp.pi / 6, allow_nonphysical=True)
        assert w.b < 0


def test_trig_round_trip_delta_is_cos_2eta():
    rng = random.Random(2)
    with mp.workprec(128):
        for _ in range(8):
            eta = mp.mpf(rng.uniform(0.15, 0.7))
            lam = mp.mpf(rng.uniform(float(eta) + 0.05, 2.2))
            if not (mp.sin(lam + eta) > 0 and mp.sin(lam - eta) > 0):
                continue
            w = weights_from_trig(lam, 0, eta, allow_nonphysical=True)
            delta, _ = delta_t_from_weights(w)
            assert abs(delta - mp.cos(2 * eta)) < mp.mpf("1e-35")


def test_scale_invariance():
    rng = random.Random(9)
    for _ in range(8):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        k = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        p1 = delta_t_from_weights(VertexWeights.from_abc(a, b, c, True))
        p2 = delta_t_from_weights(VertexWeights.from_abc(k * a, k * b, k * c, True))
        assert p1 == p2


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(2)) is None
    assert exact_sqrt(Fraction(-1)) is None


def test_from_delta_t_rational_c_detection():
    w = VertexWeights.from_delta_t(Fraction(1, 2), Fraction(1))
    assert w.c == 1 and w.c2 == 1
    w = VertexWeights.from_delta_t(Fraction(0), Fraction(1))
    assert w.c is None and w.c2 == 2
    w = VertexWeights.from_delta_t(Fraction(-1), Fraction(2, 3))
    assert w.c == Fraction(5, 3)
    w = VertexWeights.from_delta_t(Fraction(3, 2), Fraction(1, 2),
                                   allow_nonphysical=True)
    assert w.c is None and w.c2 == Fraction(-1, 4)


def test_exact_backend_rejects_trig():
    with pytest.raises(Unsupported):
        weights_from_trig(Fraction(1, 2), 0, Fraction(1, 3))


def test_lambda_eta_inversion_round_trip():
    with mp.workprec(128):
        for dval, tval in (("0.5", "1"), ("0.3", "0.6"), ("-0.4", "1.7")):
            delta, t = mp.mpf(dval), mp.mpf(tval)
            lam, eta = lambda_eta_from_delta_t(delta, t)
            d2, t2 = delta_t_from_trig(lam, eta)
            assert abs(d2 - delta) < mp.mpf("1e-35")
            assert abs(t2 - t) < mp.mpf("1e-35")
        with pytest.raises(Unsupported):
            lambda_eta_from_delta_t(mp.mpf("1.5"), mp.mpf("0.5"))


def test_lambda_eta_takes_rational_delta_t():
    # a rational (Delta, t) is rounded once, like the float input it stands for
    with mp.workprec(128):
        assert (lambda_eta_from_delta_t(Fraction(1, 3), Fraction(3, 4))
                == lambda_eta_from_delta_t(mp.mpf(1) / 3, mp.mpf(3) / 4))


# the frozen value classes as they were when they were frozen dataclasses
VALUES = [
    (lambda: YoungProfile(4, [2, 3]), "YoungProfile(N=4, r=(2, 3))", (4, (2, 3))),
    (lambda: VertexWeights.from_delta_t(Fraction(1, 3), Fraction(3, 4)),
     "VertexWeights(a=Fraction(1, 1), b=Fraction(3, 4), c2=Fraction(17, 16), c=None, "
     "allow_nonphysical=False)",
     (1, Fraction(3, 4), Fraction(17, 16), None, False)),
    (lambda: VertexWeights.from_abc(Fraction(2), Fraction(1), Fraction(2)),
     "VertexWeights(a=Fraction(2, 1), b=Fraction(1, 1), c2=Fraction(4, 1), c=Fraction(2, 1), "
     "allow_nonphysical=False)",
     (2, 1, 4, 2, False)),
    (lambda: SpectralData(["0.5", 1], ["0.25", 0], "0.125"),
     "SpectralData(lambdas=(mpf('0.5'), mpf('1.0')), nus=(mpf('0.25'), mpf('0.0')), "
     "eta=mpf('0.125'))",
     ((0.5, 1), (0.25, 0), 0.125)),
]


@pytest.mark.parametrize("make, text, fields", VALUES, ids=["profile", "weights", "abc",
                                                           "spectral"])
def test_frozen_values_compare_hash_and_show_like_frozen_dataclasses(make, text, fields):
    value = make()
    assert not hasattr(value, "__dict__")       # the fields live in slots
    assert repr(value) == text
    assert value == make() and hash(value) == hash(make()) == hash(fields)
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert copy.copy(value) == copy.deepcopy(value) == pickle.loads(pickle.dumps(value)) == value
    name = text.split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 0
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert value == make()


def test_frozen_values_differ_by_type_and_field():
    w = VertexWeights(Fraction(1), Fraction(1), Fraction(1))
    assert w != VertexWeights(Fraction(1), Fraction(1), Fraction(1), allow_nonphysical=True)
    assert YoungProfile(3, [1]) != YoungProfile(4, [1])
    assert len({YoungProfile(3, [1]), YoungProfile(3, (1,)), YoungProfile(3, [2])}) == 2


@pytest.mark.parametrize("make, error, message", [
    (lambda: YoungProfile(0, []), BadIndex, "N must be positive, got 0"),
    (lambda: YoungProfile(2, [1, 2, 2]), BadIndex, "profile length 3 exceeds N=2"),
    (lambda: YoungProfile(3, [2, 1]), BadIndex,
     "profile must satisfy 1 <= r_1 <= ... <= r_s <= N, got r=(2, 1)"),
    (lambda: YoungProfile(3, [4]), BadIndex,
     "profile must satisfy 1 <= r_1 <= ... <= r_s <= N, got r=(4,)"),
    (lambda: VertexWeights(Fraction(0), Fraction(1), Fraction(1)), DivisionByZero,
     "vertex weights a and b must be nonzero"),
    (lambda: VertexWeights(Fraction(1), Fraction(0), Fraction(1), allow_nonphysical=True),
     DivisionByZero, "vertex weights a and b must be nonzero"),
    (lambda: VertexWeights(Fraction(1), Fraction(1), Fraction(0), allow_nonphysical=True),
     NonphysicalWeights, "weight c must be nonzero"),
    (lambda: VertexWeights(Fraction(1), Fraction(-1), Fraction(1)), NonphysicalWeights,
     "weights must be positive in physical mode: a=1, b=-1, c^2=1"),
    (lambda: VertexWeights(Fraction(1), Fraction(1), Fraction(1), Fraction(-1)),
     NonphysicalWeights, "weight c=-1 must be positive"),
    (lambda: SpectralData([1], [1, 2], "0.1"), ValueError,
     "lambdas and nus must have equal length"),
])
def test_frozen_values_refuse_the_same_inputs(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
