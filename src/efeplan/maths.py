"""Numerical helpers for categorical distributions in linear and log space."""
from __future__ import annotations

import numpy as np

NORM_ATOL = 1e-12


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of finite logits along the last axis."""
    z = np.asarray(logits, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(x))) tolerating -inf entries (zero probabilities).

    When every maximum is finite, each sum contains exp(0) = 1, so log never
    sees 0 and the warning guard is skipped. The forward step of
    `inference.filter_and_smooth` inlines that finite case in place and calls
    this function for the rest, so this stays the one implementation of the
    rule for -inf maxima; the inlined step must keep the operations below and
    their order.
    """
    x = np.asarray(x, dtype=float)
    m = x.max(axis=axis, keepdims=True)
    finite = np.isfinite(m)
    if finite.all():
        out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    else:  # an all -inf slice sums to 0, and its log is -inf
        m = np.where(finite, m, 0.0)
        with np.errstate(divide="ignore"):
            out = np.log(np.exp(x - m).sum(axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return out.squeeze(axis=axis)


def safe_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log mapping 0 to -inf without warnings."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(x, dtype=float))


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0*log(0) = 0."""
    p = np.asarray(p, dtype=float)
    pm = p[p > 0]
    return float(-(pm * np.log(pm)).sum())


def kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) in nats. Entries of p must be positive wherever q is."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    m = q > 0
    qm = q[m]
    pm = p[m]
    if (pm <= 0).any():
        return float("inf")
    return float((qm * (np.log(qm) - np.log(pm))).sum())


def column_entropies(matrix: np.ndarray) -> np.ndarray:
    """Entropy of each column of a stochastic matrix (observations x states)."""
    a = np.asarray(matrix, dtype=float)
    logs = np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), 0.0)
    return -np.sum(a * logs, axis=0)


def is_distribution(p: np.ndarray, atol: float = NORM_ATOL) -> bool:
    p = np.asarray(p, dtype=float)
    return bool((p >= 0).all() and abs(p.sum() - 1.0) <= atol)
