"""The scaled linear-space forward-backward filter against its log-space oracle.

`reference_logsumexp`, `reference_softmax` and `reference_filter_and_smooth`
are the per-step list-based log-space implementations that the library
replaced. The library multiplies and rescales in linear space instead, so its
marginals must agree with the reference within MARGINAL_ATOL, and both must
raise the same ZeroEvidence. Bit equality still holds where no log-space
route is involved: the forward-only pass (`smooth=False`) that roots the
policy tree gives the library's own smoothed row at the last observed step,
bit for bit, and a model built from arrays in any memory layout filters to
the same bits as its C-ordered twin. The test names keep the
`bit_identical` wording of the log-space filter they were written for.
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

MARGINAL_ATOL = 1e-12


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

    marginals = [reference_softmax(alphas[tau] + betas[tau]) for tau in range(L)]
    return ep.MarginalBeliefs(np.stack(marginals))


def _outcome(filter_fn, model, history, policy):
    """Marginal arrays, or the (timestep, observation) of the ZeroEvidence raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return [b.probs for b in filter_fn(model, history, policy)]
    except ep.ZeroEvidence as exc:
        return (exc.timestep, exc.observation)


def assert_same_outcome(model, history, policy=None):
    """Assert marginals within MARGINAL_ATOL or the same ZeroEvidence; return the outcome."""
    got = _outcome(ep.filter_and_smooth, model, history, policy)
    want = _outcome(reference_filter_and_smooth, model, history, policy)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert isinstance(got, list) and len(got) == len(want)
    for tau, (g, w) in enumerate(zip(got, want)):
        diff = np.abs(g - w).max()
        assert diff <= MARGINAL_ATOL, f"timestep {tau}: max |diff| {diff}"
    return got


def forward_only(model, history, policy=None):
    return ep.filter_and_smooth(model, history, policy, smooth=False)


def assert_same_root(model, history):
    """Assert the forward-only belief at t is the smoothed one.

    It must equal the library's smoothed row t bit for bit, and the
    reference's within MARGINAL_ATOL. Returns the root, or the (timestep,
    observation) of the ZeroEvidence that all three routes raise.
    """
    got = _outcome(forward_only, model, history, None)
    smoothed = _outcome(ep.filter_and_smooth, model, history, None)
    want = _outcome(reference_filter_and_smooth, model, history, None)
    if isinstance(want, tuple):
        assert got == smoothed == want
        return got
    assert isinstance(got, list) and len(got) == len(smoothed) == len(want) == history.t + 1
    root = got[history.t]
    assert np.array_equal(root, smoothed[history.t])
    diff = np.abs(root - want[history.t]).max()
    assert diff <= MARGINAL_ATOL, f"max |diff| {diff}"
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


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_filter_matches_reference_on_400_step_histories(sparse):
    """Without the per-step rescaling, these messages would underflow to 0."""
    rng = np.random.default_rng(400 + sparse)
    model, history, policy = _late_case(rng, (12, 12, 3, 402), sparse, tail=True)
    assert len(assert_same_outcome(model, history, policy)) == 403
    assert_same_root(model, history)


def test_filter_underflow_is_zero_evidence():
    """Evidence below np.finfo(float).tiny raises ZeroEvidence; log space survives it.

    State 1 emits observation 0 with probability 1e-20, and only state 1 can
    emit observation 1. After k zeros, a 1 has evidence ~1e-20**k given them:
    e^-691 for k = 15, above tiny (e^-708), and e^-737 for k = 16, below it.
    """
    model = ep.make_model(
        likelihood=[[1.0, 1e-20], [0.0, 1.0 - 1e-20]],
        transitions=np.eye(2)[np.newaxis],
        initial_belief=[0.5, 0.5],
        obs_log_pref=np.zeros(2),
        horizon=16,
    )
    assert 15 * np.log(1e-20) > np.log(np.finfo(float).tiny) > 16 * np.log(1e-20)
    for zeros in (15, 16):
        history = ep.History((0,) * zeros + (1,), (0,) * zeros)
        want = _outcome(reference_filter_and_smooth, model, history, None)
        assert all(np.array_equal(w, [0.0, 1.0]) for w in want)
        if zeros == 15:
            assert_same_outcome(model, history)
            assert_same_root(model, history)
        else:
            for smooth in (True, False):
                with pytest.raises(ep.ZeroEvidence) as exc_info:
                    ep.filter_and_smooth(model, history, smooth=smooth)
                assert (exc_info.value.timestep, exc_info.value.observation) == (16, 1)


def test_filter_backward_ignores_states_the_forward_pass_rules_out():
    """A backward entry for a state no history reaches is dropped, not propagated.

    State 1 is unreachable, yet it explains each observation 1e200 times
    better than state 0; its unscaled backward entry would pass 1e308 after
    two steps, and 0 * inf would then make every marginal nan.
    """
    model = ep.make_model(
        likelihood=[[1e-200, 1.0], [1.0, 0.0]],
        transitions=np.eye(2)[np.newaxis],
        initial_belief=[1.0, 0.0],
        obs_log_pref=np.zeros(2),
        horizon=3,
    )
    history = ep.History((0, 0, 0, 0), (0, 0, 0))
    got = assert_same_outcome(model, history)
    assert all(np.array_equal(g, [1.0, 0.0]) for g in got)


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """x with equal values in the given memory layout; a 3-D x has actions first."""
    x = np.ascontiguousarray(x)
    if layout == "C":
        return x
    if layout == "F" or x.ndim < 3:  # a vector or a matrix has one other layout
        return np.asfortranarray(x)
    order = {"actions-middle": (1, 0, 2), "actions-last": (2, 1, 0)}[layout]
    return np.ascontiguousarray(x.transpose(order)).transpose(order)


@pytest.mark.parametrize("layout", ["C", "F", "actions-middle", "actions-last"])
def test_filter_bit_identical_to_reference_for_every_memory_layout(layout):
    """A model's arrays are frozen C-ordered, so its floats follow its values alone.

    The order of a reduction's sum follows the layout of the array it reduces
    (numpy sums a contiguous axis pairwise and a strided one in sequence), so
    a model that kept its input's layout would filter and plan differently in
    the last bits from a C-ordered model with equal values.
    """
    rng = np.random.default_rng(21)
    for _ in range(4):
        base, history, policy = _late_case(rng, (24, 6, 3, 40), sparse=False, tail=True)
        arrays = dict(
            likelihood=base.likelihood.matrix,
            transitions=base.transitions.tensor,
            initial_belief=base.initial_belief.probs,
            obs_log_pref=rng.normal(0.0, 2.0, size=base.n_obs),
        )
        want, model = (
            ep.make_model(
                **{k: _laid_out(v, order) for k, v in arrays.items()}, horizon=base.horizon
            )
            for order in ("C", layout)
        )
        for tensor in (
            model.likelihood.matrix,
            model.transitions.tensor,
            model.initial_belief.probs,
            model.preferences.obs_log_pref,
        ):
            assert tensor.flags.c_contiguous
        for smooth in (True, False):
            got_beliefs = ep.filter_and_smooth(model, history, policy, smooth=smooth)
            want_beliefs = ep.filter_and_smooth(want, history, policy, smooth=smooth)
            for g, w in zip(got_beliefs, want_beliefs, strict=True):
                assert np.array_equal(g.probs, w.probs)
        got_ctx, want_ctx = model.planner_context, want.planner_context
        assert np.array_equal(got_ctx.state_pref.probs, want_ctx.state_pref.probs)
        for name in ("ln_pref_states", "ln_obs_marginal", "col_entropy"):
            assert np.array_equal(getattr(got_ctx, name), getattr(want_ctx, name)), name
        got_rows, want_rows = ep.efe_table(model, history)[1], ep.efe_table(want, history)[1]
        assert [r.as_row() for r in got_rows] == [r.as_row() for r in want_rows]
        assert_same_outcome(model, history, policy)
        assert_same_root(model, history)


def test_filter_marginals_are_read_only_rows_of_one_block(monkeypatch):
    rng = np.random.default_rng(8)
    model, history, policy = _late_case(rng, (16, 8, 4, 64), sparse=False, tail=True)
    for smooth in (True, False):
        beliefs = ep.filter_and_smooth(model, history, policy, smooth=smooth)
        block = beliefs.block
        assert block.shape == (len(beliefs), model.n_states) and not block.flags.writeable
        for b in (*beliefs, beliefs[-1]):
            assert b.probs.base is block
            assert not b.probs.flags.writeable
            with pytest.raises(ValueError):
                b.probs[0] = 0.5
        assert np.array_equal(beliefs[-1].probs, block[len(beliefs) - 1])
        with pytest.raises(IndexError):
            beliefs[len(beliefs)]
        with pytest.raises(TypeError):
            beliefs[1:3]
    with pytest.raises(ValueError, match="2-D"):
        ep.MarginalBeliefs(block[0])

    # A decision builds the row of its root belief at t = 62, and no other.
    reads = []
    read_row = ep.MarginalBeliefs.__getitem__

    def spy(self, t):
        reads.append(t)
        return read_row(self, t)

    monkeypatch.setattr(ep.MarginalBeliefs, "__getitem__", spy)
    for kind in ep.ObjectiveKind:
        reads.clear()
        ep.policy_posterior(model, history, kind=kind, reward_per_obs=np.ones(model.n_obs))
        assert reads == [history.t] == [62], kind


def test_filter_caches_nothing_on_the_model():
    """Per-call arrays stay off the model: a caller that keeps models would keep them."""
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
