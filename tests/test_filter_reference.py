"""The array-based forward-backward filter against its per-step reference.

`reference_logsumexp`, `reference_softmax` and `reference_filter_and_smooth`
are the per-step list-based implementations that the library replaced. The
library keeps the same operations in the same order, so every marginal must
be bit-for-bit equal, not merely close. The forward-only pass
(`smooth=False`) that roots the policy tree must give the reference's
smoothed row at the last observed step, bit for bit.
"""
from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

import efeplan as ep
from efeplan import maths
from efeplan.inference import checked_actions
from efeplan.maths import safe_log

from conftest import simulate_history


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a finite logit vector."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def reference_logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(x))) tolerating -inf entries (zero probabilities)."""
    x = np.asarray(x, dtype=float)
    m = np.max(x, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def reference_filter_and_smooth(
    model: ep.GenerativeModel, history: ep.History, policy: ep.Policy | None = None
) -> ep.MarginalBeliefs:
    """Per-timestep exact smoothed/predictive marginals via forward-backward.

    Timesteps up to t are smoothed against the observed prefix; timesteps past
    t (no evidence yet) come out as predictive marginals under the policy.
    """
    actions = checked_actions(model, history, policy)
    L = len(actions) + 1
    n_obs_steps = len(history.observations)

    logA = safe_log(model.likelihood.matrix)
    logB = safe_log(model.transitions.tensor)

    # Forward pass, renormalizing each step to keep magnitudes bounded.
    alphas = []
    la = safe_log(model.initial_belief.probs) + logA[history.observations[0]]
    norm = reference_logsumexp(la)
    if not np.isfinite(norm):
        raise ep.ZeroEvidence(0, history.observations[0])
    la = la - norm
    alphas.append(la)
    for tau in range(1, L):
        la = reference_logsumexp(logB[actions[tau - 1]] + la[np.newaxis, :], axis=1)
        if tau < n_obs_steps:
            la = la + logA[history.observations[tau]]
            norm = reference_logsumexp(la)
            if not np.isfinite(norm):
                raise ep.ZeroEvidence(tau, history.observations[tau])
            la = la - norm
        alphas.append(la)

    # Backward pass; steps without evidence contribute nothing beyond dynamics.
    lb = np.zeros(model.n_states)
    betas = [lb]
    for tau in range(L - 2, -1, -1):
        msg = logB[actions[tau]] + lb[:, np.newaxis]
        if tau + 1 < n_obs_steps:
            msg = msg + logA[history.observations[tau + 1]][:, np.newaxis]
        lb = reference_logsumexp(msg, axis=0)
        betas.append(lb)
    betas.reverse()

    marginals = tuple(
        ep.Categorical(reference_softmax(alphas[tau] + betas[tau])) for tau in range(L)
    )
    return ep.MarginalBeliefs(marginals)


def _outcome(filter_fn, model, history, policy):
    """Marginal arrays, or the (timestep, observation) of the ZeroEvidence raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return [b.probs for b in filter_fn(model, history, policy)]
    except ep.ZeroEvidence as exc:
        return (exc.timestep, exc.observation)


def assert_same_outcome(model, history, policy=None):
    """Assert bit-equal marginals or the same ZeroEvidence; return the outcome."""
    got = _outcome(ep.filter_and_smooth, model, history, policy)
    want = _outcome(reference_filter_and_smooth, model, history, policy)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, list) and len(got) == len(want)
    for tau, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), f"timestep {tau}: max |diff| {np.abs(g - w).max()}"
    return got


def forward_only(model, history, policy=None):
    return ep.filter_and_smooth(model, history, policy, smooth=False)


def assert_same_root(model, history):
    """Assert the forward-only belief at t is the reference's smoothed one, bit for bit.

    Returns the root, or the (timestep, observation) of the ZeroEvidence that
    both routes raise.
    """
    got = _outcome(forward_only, model, history, None)
    want = _outcome(reference_filter_and_smooth, model, history, None)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, list) and len(got) == len(want) == history.t + 1
    root, want_root = got[history.t], want[history.t]
    assert np.array_equal(root, want_root), f"max |diff| {np.abs(root - want_root).max()}"
    return root


def _stochastic(rng, rows: int, cols: int, sparse: bool) -> np.ndarray:
    """A (rows, cols) column-stochastic matrix; sparse ones have exact zeros."""
    m = rng.dirichlet(np.ones(rows), size=cols).T
    if sparse:
        keep = rng.random((rows, cols)) < 0.3
        keep[rng.integers(0, rows, size=cols), np.arange(cols)] = True
        m = np.where(keep, m, 0.0)
        m /= m.sum(axis=0, keepdims=True)
    return m


def _random_case(rng):
    S = int(rng.choice([1, 2, 3, 5, 8, 13, 24, 40]))
    O = int(rng.integers(1, 7))
    n_actions = int(rng.integers(1, 4))
    steps = int(rng.integers(0, 41))
    extra = int(rng.integers(0, 4))
    model = ep.make_model(
        likelihood=_stochastic(rng, O, S, sparse=bool(rng.random() < 0.5)),
        transitions=np.stack(
            [_stochastic(rng, S, S, sparse=bool(rng.random() < 0.5)) for _ in range(n_actions)]
        ),
        initial_belief=_stochastic(rng, S, 1, sparse=bool(rng.random() < 0.5))[:, 0],
        obs_log_pref=np.zeros(O),
        horizon=steps + extra,
    )
    if rng.random() < 0.6:
        history = simulate_history(rng, model, steps)
    else:  # arbitrary observations: often inconsistent with sparse models
        history = ep.History(
            tuple(int(o) for o in rng.integers(0, O, size=steps + 1)),
            tuple(int(a) for a in rng.integers(0, n_actions, size=steps)),
        )
    policy = None
    if extra and rng.random() < 0.5:
        policy = ep.Policy(tuple(int(a) for a in rng.integers(0, n_actions, size=extra)))
    return model, history, policy


def test_filter_bit_identical_to_reference_on_random_models():
    rng = np.random.default_rng(6)
    outcomes = {"marginals": 0, "zero_evidence": 0, "policy": 0, "unreachable": 0}
    roots = {"zero_evidence": 0, "unreachable": 0}
    for _ in range(200):
        model, history, policy = _random_case(rng)
        got = assert_same_outcome(model, history, policy)
        outcomes["zero_evidence" if isinstance(got, tuple) else "marginals"] += 1
        outcomes["policy"] += policy is not None
        outcomes["unreachable"] += isinstance(got, list) and any((p == 0).any() for p in got)
        root = assert_same_root(model, history)
        roots["zero_evidence"] += isinstance(root, tuple)
        roots["unreachable"] += not isinstance(root, tuple) and bool((root == 0).any())
    # The corpus exercises every branch: raises, policies and exact-zero states.
    assert min(outcomes.values()) >= 10, outcomes
    assert min(roots.values()) >= 10, roots


def test_filter_bit_identical_to_reference_on_tmaze_histories():
    model = ep.tmaze_model()
    rng = np.random.default_rng(7)
    # Every history of up to one step, consistent or not.
    for t in (0, 1):
        for obs in itertools.product(range(model.n_obs), repeat=t + 1):
            for acts in itertools.product(range(model.n_actions), repeat=t):
                history = ep.History(obs, acts)
                assert_same_outcome(model, history)
                assert_same_root(model, history)
                remaining = model.horizon - t
                policy = ep.Policy(tuple(int(a) for a in rng.integers(0, 4, size=remaining)))
                assert_same_outcome(model, history, policy)
    for _ in range(40):
        history = simulate_history(rng, model, model.horizon)
        assert_same_outcome(model, history)
        assert_same_root(model, history)


def _late_case(rng, shape, sparse: bool, tail: bool):
    """A benchmark-sized model decided at t = H-2, optionally with a 2-step policy."""
    S, O, n_actions, H = shape
    model = ep.make_model(
        likelihood=_stochastic(rng, O, S, sparse),
        transitions=np.stack([_stochastic(rng, S, S, sparse) for _ in range(n_actions)]),
        initial_belief=_stochastic(rng, S, 1, sparse)[:, 0],
        obs_log_pref=np.zeros(O),
        horizon=H,
    )
    history = simulate_history(rng, model, H - 2)
    policy = ep.Policy(tuple(int(a) for a in rng.integers(0, n_actions, size=2))) if tail else None
    return model, history, policy


@pytest.mark.parametrize("shape", [(16, 8, 4, 64), (32, 12, 4, 96)])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_filter_bit_identical_to_reference_on_long_histories(shape, sparse):
    rng = np.random.default_rng(shape[0] + 100 * sparse)
    for tail in (False, False, True):
        model, history, policy = _late_case(rng, shape, sparse, tail)
        got = assert_same_outcome(model, history, policy)
        assert len(got) == shape[3] - 1 + 2 * tail
        assert_same_root(model, history)


@pytest.mark.parametrize("layout", ["C", "F", "actions-middle", "actions-last"])
def test_filter_bit_identical_to_reference_for_every_memory_layout(layout):
    """The order of a reduction's sum follows the layout of the array it reduces.

    The per-step form reduces fresh arrays laid out like logB[a], so the filter
    must reduce the same layout: a C-ordered scratch would sum the rows of a
    Fortran-ordered B pairwise instead of in sequence and change the last bits.
    """
    rng = np.random.default_rng(21)
    for _ in range(4):
        model, history, policy = _late_case(rng, (24, 6, 3, 40), sparse=False, tail=True)
        B = np.ascontiguousarray(model.transitions.tensor)
        B = {
            "C": B,
            "F": np.asfortranarray(B),
            "actions-middle": np.ascontiguousarray(B.transpose(1, 0, 2)).transpose(1, 0, 2),
            "actions-last": np.ascontiguousarray(B.transpose(2, 1, 0)).transpose(2, 1, 0),
        }[layout]
        model = ep.make_model(
            likelihood=model.likelihood.matrix,
            transitions=B,
            initial_belief=model.initial_belief.probs,
            obs_log_pref=np.zeros(model.n_obs),
            horizon=model.horizon,
        )
        assert model.transitions.tensor.strides == B.strides
        assert_same_outcome(model, history, policy)
        assert_same_root(model, history)


def test_filter_marginals_are_read_only_rows_of_one_block():
    rng = np.random.default_rng(8)
    model, history, policy = _late_case(rng, (16, 8, 4, 64), sparse=False, tail=True)
    for smooth in (True, False):
        beliefs = ep.filter_and_smooth(model, history, policy, smooth=smooth)
        block = beliefs[0].probs.base
        assert block is not None and block.shape == (len(beliefs), model.n_states)
        for b in beliefs.per_time:
            assert b.probs.base is block
            assert not b.probs.flags.writeable
            with pytest.raises(ValueError):
                b.probs[0] = 0.5


def test_filter_caches_nothing_on_the_model():
    """Per-call log tables stay off the model: a caller that keeps models keeps them."""
    rng = np.random.default_rng(9)
    model, history, policy = _late_case(rng, (16, 8, 4, 64), sparse=False, tail=True)
    before = dict(vars(model))
    ep.filter_and_smooth(model, history, policy)
    ep.filter_and_smooth(model, history)
    ep.filter_and_smooth(model, history, smooth=False)
    after = vars(model)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize(
    "x, axis",
    [
        (np.array([-np.inf, -np.inf]), None),
        (np.full((3, 4), -np.inf), 0),
        (np.full((3, 4), -np.inf), 1),
        (np.array([[0.5, -np.inf], [-np.inf, -np.inf], [np.inf, 1.0]]), 1),
        (np.array([[0.5, -np.inf], [-np.inf, -np.inf], [np.inf, 1.0]]), 0),
        (np.array([np.inf, -np.inf, 2.0]), None),
        (np.array([1.0, np.nan]), None),
        (np.float64(-3.25), None),
        (2.5, None),
        (-np.inf, None),
        (np.array([[-1e300, 700.0, 3.0]]), 1),
        (np.random.default_rng(1).normal(size=(5, 6, 7)), 1),
    ],
)
def test_logsumexp_bit_identical_to_reference(x, axis):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = maths.logsumexp(x, axis=axis)
    want = reference_logsumexp(x, axis=axis)
    assert type(got) is type(want)
    assert np.array_equal(got, want, equal_nan=True)


def test_softmax_bit_identical_to_reference():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 8, 9, 33, 139):
        z = rng.normal(0.0, 30.0, size=n)
        z[rng.random(n) < 0.3] = -np.inf
        z[0] = rng.normal()
        assert np.array_equal(maths.softmax(z), reference_softmax(z))
