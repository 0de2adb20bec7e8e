"""Log-space and categorical helper numerics."""
from __future__ import annotations

import numpy as np
import pytest

from efeplan.maths import (
    column_entropies,
    entropy,
    is_distribution,
    kl_divergence,
    logsumexp,
    softmax,
)


def test_logsumexp_matches_naive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(0, 5, size=rng.integers(1, 10))
        assert logsumexp(x) == pytest.approx(np.log(np.exp(x).sum()), rel=1e-12)


def test_logsumexp_handles_neg_inf():
    x = np.array([-np.inf, 0.0, -np.inf])
    assert logsumexp(x) == pytest.approx(0.0, abs=1e-15)
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf


def test_logsumexp_axis():
    x = np.array([[0.0, -np.inf], [1.0, 0.0]])
    out = logsumexp(x, axis=0)
    assert out[0] == pytest.approx(np.log(1 + np.e), rel=1e-12)
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_softmax_shift_invariant():
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-15)
    assert abs(softmax(x).sum() - 1.0) < 1e-15


def test_entropy_and_kl_edge_cases():
    assert entropy(np.array([1.0, 0.0])) == 0.0
    assert entropy(np.array([0.5, 0.5])) == pytest.approx(np.log(2), rel=1e-12)
    q = np.array([0.5, 0.5, 0.0])
    p = np.array([0.25, 0.25, 0.5])
    assert kl_divergence(q, p) == pytest.approx(np.log(2), rel=1e-12)
    assert kl_divergence(q, q) == 0.0
    assert kl_divergence(q, np.array([1.0, 0.0, 0.0])) == np.inf


def test_column_entropies_zero_for_deterministic():
    A = np.eye(3)
    assert np.allclose(column_entropies(A), 0.0, atol=0)
    A = np.full((2, 4), 0.5)
    assert np.allclose(column_entropies(A), np.log(2), atol=1e-15)


def test_is_distribution():
    assert is_distribution(np.array([0.5, 0.5]))
    assert not is_distribution(np.array([0.5, 0.6]))
