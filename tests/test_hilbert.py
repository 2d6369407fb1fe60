import math

import numpy as np
import pytest

from pathmkv.control import BoxActionSet
from pathmkv.errors import ConfigurationError, DomainError
from pathmkv.hilbert import (
    SpectralOperator,
    semigroup_apply,
    yosida,
)
from pathmkv.hjb import investment_hamiltonian_closed_form
from pathmkv.paths import TimeGrid, bump, constant_path


def gen(lams):
    return SpectralOperator(np.atleast_1d(lams))


def test_semigroup_identity_when_a_zero():
    A = gen(np.zeros(4))
    x = [1.0, -2.0, 3.0, 0.5]
    y = semigroup_apply(A, 5.0, x)
    assert np.array_equal(y, x)


def test_semigroup_scalar_exponential():
    A = gen([-1.0])
    y = semigroup_apply(A, 1.0, [2.0])
    assert y[0] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)
    assert y[0] == pytest.approx(0.7357588823428847, abs=1e-12)


def test_semigroup_componentwise():
    A = gen([-1.0, -4.0])
    y = semigroup_apply(A, 0.5, [1.0, 1.0])
    assert y == pytest.approx([math.exp(-0.5), math.exp(-2.0)], abs=1e-15)


def test_semigroup_law_and_contraction_bound():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rng.integers(1, 6)
        lams = rng.uniform(-3.0, 0.5, d)
        A = gen(lams)
        x = rng.normal(size=d)
        s, t = rng.uniform(0, 2, 2)
        once = semigroup_apply(A, s + t, x)
        twice = semigroup_apply(A, s, semigroup_apply(A, t, x))
        assert np.allclose(once, twice, rtol=1e-13, atol=1e-15)
        assert np.linalg.norm(semigroup_apply(A, t, x)) <= math.exp(A.eta * t) * np.linalg.norm(x) * (1 + 1e-12)


def test_semigroup_rejects_negative_time():
    A = gen([-1.0])
    with pytest.raises(DomainError):
        semigroup_apply(A, -0.1, [1.0])


def test_dimension_mismatch_is_configuration_error():
    A = gen([-1.0, -2.0])
    with pytest.raises(ConfigurationError):
        semigroup_apply(A, 1.0, [1.0])


def test_a_wrong_shape_vector_is_refused_where_it_meets_an_operator_or_a_path():
    A = gen([-1.0, -2.0])
    box = BoxActionSet([-1.0, -1.0], [1.0, 1.0])
    for bad in (np.eye(2), np.ones(3)):
        with pytest.raises(ConfigurationError):
            bump(constant_path(TimeGrid(1.0, 4), [0.0, 0.0]), 0.5, bad)
        with pytest.raises(ConfigurationError):
            semigroup_apply(A, 1.0, bad)
        with pytest.raises(ConfigurationError):
            investment_hamiltonian_closed_form(bad, 0.0, 0.0, np.zeros(2), A, gen([1.0, 1.0]), box)
        with pytest.raises(ConfigurationError):
            investment_hamiltonian_closed_form(np.zeros(2), 0.0, 0.0, bad, A, gen([1.0, 1.0]), box)
    # M and the box are checked against C's dimension too: a 3-entry M would
    # end in a numpy broadcasting error, a 1-coordinate box would broadcast
    # over both coordinates of u
    p = np.ones(2)
    with pytest.raises(ConfigurationError):
        investment_hamiltonian_closed_form(p, 0.0, 0.0, np.zeros(2), A, gen([1.0, 1.0, 1.0]), box)
    with pytest.raises(ConfigurationError):
        investment_hamiltonian_closed_form(
            p, 0.0, 0.0, np.zeros(2), A, gen([1.0, 1.0]), BoxActionSet([-1.0], [1.0])
        )


def test_yosida_zero_operator():
    A = gen([0.0])
    An = yosida(A, 10)
    assert An.eigenvalues[0] == 0.0


def test_yosida_values():
    assert yosida(gen([-1.0]), 10).eigenvalues[0] == pytest.approx(-10.0 / 11.0, abs=1e-15)
    assert yosida(gen([-100.0]), 4).eigenvalues[0] == pytest.approx(-400.0 / 104.0, abs=1e-13)


def test_yosida_requires_n_above_eta():
    A = gen([0.5])  # eta = 0.5
    with pytest.raises(DomainError):
        yosida(A, 0.5)
    An = yosida(A, 2.0)
    assert An.eta >= An.eigenvalues.max()


def test_yosida_pointwise_convergence_halves():
    # |A_n x - A x| should roughly halve when n doubles past 4 |lam_max|.
    rng = np.random.default_rng(1)
    lams = rng.uniform(-2.0, 0.0, 5)
    A = gen(lams)
    x = rng.normal(size=5)
    lam_max = abs(lams).max()
    n = 4.0 * lam_max + 1.0
    errs = []
    for _ in range(6):
        err = np.linalg.norm(yosida(A, n).eigenvalues * x - lams * x)
        errs.append(err)
        n *= 2
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.6 * a
        assert b < a


def test_generator_eta_validation():
    A = SpectralOperator([-1.0, 0.2])
    assert A.eta == pytest.approx(0.2)
