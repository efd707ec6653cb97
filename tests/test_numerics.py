import numpy as np
import pytest

from fairmetric.errors import ConfigurationError, InvariantError
from fairmetric.numerics import covariance, psd_project, safe_inverse

from conftest import random_spd


def test_psd_project_diagonal_clamp():
    out = psd_project(np.diag([2.0, -3.0]))
    assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)


def test_psd_project_leaves_psd_input_alone():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_spd(rng, 3)
        assert np.linalg.norm(psd_project(a) - a, "fro") < 1e-9


def test_psd_project_hand_computed_offdiagonal():
    # eigenvalues of [[0,1],[1,0]] are +1/-1; clamping -1 leaves 0.5 * ones
    out = psd_project(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(out, np.full((2, 2), 0.5), atol=1e-12)


def test_psd_project_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.normal(size=(4, 4))
        a = 0.5 * (a + a.T)
        once = psd_project(a)
        assert np.linalg.norm(psd_project(once) - once, "fro") < 1e-9


def test_psd_project_rejects_asymmetric():
    with pytest.raises(InvariantError):
        psd_project(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_safe_inverse_identity_and_diagonal():
    inv, floored = safe_inverse(np.eye(3))
    assert np.allclose(inv, np.eye(3))
    assert not floored
    inv, floored = safe_inverse(np.diag([2.0, 4.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25]))
    assert not floored


def test_safe_inverse_hand_computed_2x2():
    inv, floored = safe_inverse(np.array([[1.0, 0.5], [0.5, 1.0]]))
    expected = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
    assert np.allclose(inv, expected, atol=1e-12)
    assert not floored


def test_safe_inverse_floors_singular_input():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
    inv, floored = safe_inverse(a)
    assert floored
    assert np.all(np.isfinite(inv))


def test_safe_inverse_times_input_is_identity_when_clean():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = random_spd(rng, 4)
        inv, floored = safe_inverse(a)
        assert not floored
        assert np.linalg.norm(inv @ a - np.eye(4), "fro") < 1e-6


def test_covariance_identical_rows_is_zero():
    x = np.tile([1.0, 2.0, 3.0], (5, 1))
    assert np.allclose(covariance(x), 0.0)


def test_covariance_hand_computed():
    assert np.allclose(covariance(np.array([[0.0, 0.0], [2.0, 0.0]])), [[2.0, 0.0], [0.0, 0.0]])


def test_covariance_of_standardized_uncorrelated_columns():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(500, 3))
    cov = covariance(x)
    w, v = np.linalg.eigh(cov)
    x_white = (x - x.mean(0)) @ v / np.sqrt(w)  # exact empirical whitening
    assert np.allclose(covariance(x_white), np.eye(3), atol=1e-10)


def test_covariance_is_symmetric_psd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cov = covariance(rng.normal(size=(8, 4)))
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov)[0] >= -1e-10


def test_covariance_rejects_single_row():
    with pytest.raises(ConfigurationError):
        covariance(np.zeros((1, 3)))
