"""The fused softplus/sigmoid kernel and the flat-buffer gradient against
the slow references they replaced.

The references are np.logaddexp(0, z) for softplus; scipy's expit, and
the np.where select the kernel replaced, for the sigmoid; scipy's expit
for the head sigmoid, which must equal it bit for bit; and a
per-layer forward/backward pass that keeps one (weights, biases) pair of
arrays per layer. Draws come from hypothesis
and are derandomized, so every run checks the same examples.

The two softplus paths are pinned bit for bit: `forward` runs the fused
kernel of `gradient`, and `evaluate` alone scores on np.logaddexp, so
that reported ties sit where an outside recomputation puts them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from fedsln.federation import make_clients
from fedsln.neural import (
    BatchStream,
    DenseLayer,
    ModelParams,
    TrainConfig,
    _sigmoid,
    _softplus_sigmoid,
    auc,
    bce_loss,
    confusion_counts,
    evaluate,
    forward,
    gradient,
    init_params,
    train_steps,
)
from fedsln.personalization import _meta_round, learn_ala_weights
from fedsln.rng import derive_rng

TINY = np.finfo(np.float64).tiny  # smallest normal float64
CHECKED = settings(derandomize=True, deadline=None, max_examples=200)

z_values = st.one_of(
    st.floats(-745.0, 745.0),
    st.floats(-TINY, TINY),  # zeros and subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 709.0, -709.0]),
)
z_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=24), elements=z_values
)


@CHECKED
@given(z_arrays)
def test_fused_softplus_matches_logaddexp(z):
    act, _ = _softplus_sigmoid(z.copy())
    np.testing.assert_allclose(act, np.logaddexp(0.0, z), rtol=1e-12, atol=0.0)


@CHECKED
@given(z_arrays)
def test_fused_sigmoid_matches_expit(z):
    _, sig = _softplus_sigmoid(z.copy())
    # expit computes 1/(1+exp(-z)), which underflows to 0 or to a rounded
    # subnormal below z = -708; the absolute slack covers only that range
    np.testing.assert_allclose(sig, expit(z), rtol=1e-12, atol=TINY)
    assert np.all((sig >= 0.0) & (sig <= 1.0))


def select_sigmoid(z):
    """The sigmoid in the np.where form the branch-free select replaced."""
    e = np.exp(-np.abs(z))
    sig = np.where(z < 0.0, e, 1.0)
    sig /= e + 1.0
    return sig


@CHECKED
@given(z_arrays)
def test_fused_sigmoid_matches_select_bitwise(z):
    _, sig = _softplus_sigmoid(z.copy())
    want = select_sigmoid(z)
    assert sig.dtype == want.dtype and sig.tobytes() == want.tobytes()


def test_fused_sigmoid_keeps_nan():
    z = np.array([np.nan, -np.nan, 0.0, -1.0, 1.0])
    _, sig = _softplus_sigmoid(z.copy())
    assert np.isnan(sig[:2]).all() and np.isnan(select_sigmoid(z)[:2]).all()
    assert sig[2:].tobytes() == select_sigmoid(z)[2:].tobytes()


head_z_values = st.one_of(
    st.floats(min_value=-709.0),  # +inf included
    st.floats(-TINY, TINY),  # zeros and subnormals
    st.sampled_from([-np.inf, 0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, 800.0]),
)


@CHECKED
@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=1, max_side=64), elements=head_z_values))
def test_head_sigmoid_matches_expit_bitwise(z):
    p = _sigmoid(z)
    assert p.dtype == np.float64 and p.tobytes() == expit(z).tobytes()


@CHECKED
@given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1.0, 30.0, 709.0]))
def test_head_sigmoid_matches_expit_on_full_mantissas(seed, scale):
    # hypothesis favours short floats; numpy's float64 exp differs from
    # libm's on a few percent of uniform draws, which these reach
    z = derive_rng(seed, "head-sigmoid").uniform(-scale, scale, 4096)
    assert _sigmoid(z).tobytes() == expit(z).tobytes()


@CHECKED
@given(hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(-709.79, -709.0)))
def test_head_sigmoid_moves_at_most_one_subnormal_step_below_minus_709(z):
    # glibc's cexp scales its argument above 709, so exp(-z) there is
    # not libm's exp to the bit; p < 1.2e-308 is all that can move
    with np.errstate(over="ignore"):
        assert np.max(np.abs(_sigmoid(z) - expit(z))) <= 5e-324


def test_head_sigmoid_limits_and_nan():
    z = np.array([800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan])
    with np.errstate(over="ignore"):
        p = _sigmoid(z)
    assert p[:4].tolist() == [1.0, 0.0, 1.0, 0.0]
    assert np.isnan(p[4:]).all()


def test_every_path_to_the_head_sigmoid_is_silent_on_overflow():
    # head logits of +-800: exp(800) overflows inside the sigmoid, which
    # expit does silently; the suite turns a RuntimeWarning into an error
    params = ModelParams.from_layers([DenseLayer(np.array([[800.0]]), np.array([0.0]))])
    x, y = np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
    cfg = TrainConfig(batch_size=2, local_steps=1, ala_top_layers=1, ala_update_cap=2)
    assert forward(params, x).tolist() == [1.0, 0.0]
    assert evaluate(params, x, y).auc == 1.0
    gradient(params, x, y)
    train_steps(params, x, y, cfg, BatchStream(2, 2, derive_rng(0, "silent")), cfg.local_steps)
    (client,) = make_clients([(x, y)], seed=0)
    learn_ala_weights(client, params, params, cfg)
    _meta_round(client, params, cfg)


def reference_forward_backward(params, x, y):
    """Per-layer pass in the form the flat kernel replaced."""
    layers = [(l.weights.copy(), l.biases.copy()) for l in params.layers]
    acts = [x]
    zs = []
    for w, b in layers[:-1]:
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(np.logaddexp(0.0, z))
    head_w, head_b = layers[-1]
    p = expit(acts[-1] @ head_w.T + head_b)[:, 0]
    delta = ((p - y) / y.size)[:, None]
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        grads.append((delta.T @ acts[i], delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ layers[i][0]) * expit(zs[i - 1])
    grads.reverse()
    return p, np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


@CHECKED
@given(
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 40), min_size=0, max_size=3),
    batch=st.integers(1, 300),
    scale=st.sampled_from([0.1, 1.0, 10.0, 300.0]),
    seed=st.integers(0, 2**16),
)
def test_flat_gradient_matches_per_layer_reference(input_dim, hidden, batch, scale, seed):
    rng = derive_rng(seed, "kernel-diff")
    params = init_params(rng, tuple(hidden), input_dim)
    x = rng.normal(scale=scale, size=(batch, input_dim))
    y = (rng.random(batch) < 0.5).astype(float)
    p_ref, g_ref = reference_forward_backward(params, x, y)

    np.testing.assert_allclose(forward(params, x), p_ref, rtol=1e-12, atol=0.0)
    got = gradient(params, x, y)
    assert isinstance(got, ModelParams) and got.layer_dims == params.layer_dims
    # entries that are sums over the batch can cancel, so the bound is
    # relative to the largest entry rather than to each one
    err = float(np.max(np.abs(got.flat - g_ref)))
    assert err <= 1e-12 * float(np.max(np.abs(g_ref))), err


def layer_scores(params, x, softplus):
    """Head probabilities of params.layers with `softplus` on each hidden layer."""
    a = x
    *hidden, (head_w, head_b) = params.layers
    for w, b in hidden:
        a = softplus(a @ w.T + b)
    return expit((a @ head_w.T + head_b)[:, 0])


model_draws = dict(
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    scale=st.sampled_from([0.1, 1.0, 10.0, 300.0]),
    seed=st.integers(0, 2**16),
)


@CHECKED
@given(batch=st.integers(1, 300), **model_draws)
def test_forward_runs_the_gradient_softplus(batch, input_dim, hidden, scale, seed):
    rng = derive_rng(seed, "forward-fused")
    params = init_params(rng, tuple(hidden), input_dim)
    x = rng.normal(scale=scale, size=(batch, input_dim))
    want = layer_scores(params, x, lambda z: _softplus_sigmoid(z)[0])
    assert forward(params, x).tobytes() == want.tobytes()


@CHECKED
@given(rows=st.integers(1, 100), copies=st.integers(2, 4), **model_draws)
def test_evaluate_scores_on_logaddexp(rows, copies, input_dim, hidden, scale, seed):
    rng = derive_rng(seed, "evaluate-logaddexp")
    params = init_params(rng, tuple(hidden), input_dim)
    # every row appears several times, so the scores hold exact ties
    base = rng.normal(scale=scale, size=(rows, input_dim))
    x = base[rng.permutation(np.repeat(np.arange(rows), copies))]
    y = (rng.random(len(x)) < 0.5).astype(float)
    y[:2] = (0.0, 1.0)
    p = layer_scores(params, x, lambda z: np.logaddexp(0.0, z))
    rep = evaluate(params, x, y)
    tp, fp, tn, fn = confusion_counts(p, y)
    assert (rep.tp, rep.fp, rep.tn, rep.fn) == (tp, fp, tn, fn)
    assert rep.accuracy == (tp + tn) / y.size
    assert rep.auc == auc(p, y)
    assert rep.mean_loss == float(np.mean(bce_loss(p, y)))
