"""History encoder: invariances, aggregation, and gradient flow."""

import numpy as np
import pytest

import trajdiff.autodiff as ad
from trajdiff import encoder


@pytest.fixture(scope="module")
def params():
    return encoder.init_encoder(d_e=16, d_n=8, n=8, dt=0.5, seed=3)


def _dyadic_history(scale=0.25):
    t = np.arange(8.0)
    return np.stack([scale * t, 0.5 * t - 1.0], axis=1)


def _dyadic_neighbor(shift_x, shift_y):
    t = np.arange(8.0)
    return np.stack([shift_x + 0.25 * t, shift_y - 0.25 * t], axis=1)


def test_empty_neighbors_zero_block(params):
    f = encoder.encode(_dyadic_history(), [], params)
    assert f.shape == (params.d_e + params.d_n,)
    assert np.array_equal(f[params.d_e:], np.zeros(params.d_n))
    assert np.abs(f[:params.d_e]).max() > 0


def test_neighbor_permutation_invariance(params):
    hist = _dyadic_history()
    nbrs = [_dyadic_neighbor(1.0, 2.0), _dyadic_neighbor(-2.0, 0.5),
            _dyadic_neighbor(0.0, -1.5)]
    f1 = encoder.encode(hist, nbrs, params)
    f2 = encoder.encode(hist, [nbrs[2], nbrs[0], nbrs[1]], params)
    assert np.array_equal(f1, f2)


def test_translation_invariance(params):
    hist = _dyadic_history()
    nbrs = [_dyadic_neighbor(1.0, 2.0), _dyadic_neighbor(-2.0, 0.5)]
    shift = np.array([10.0, -3.0])
    f1 = encoder.encode(hist, nbrs, params)
    f2 = encoder.encode(hist + shift, [q + shift for q in nbrs], params)
    assert np.array_equal(f1, f2)


def _dyadic_scenes(rng, counts):
    # coordinates on a 1/16 m grid within +-64 m, so every offset the
    # encoder forms from them is exact and translations change no bit
    def track():
        return rng.integers(-1024, 1024, size=(8, 2)) / 16.0
    return (np.stack([track() for _ in counts]),
            [[track() for _ in range(k)] for k in counts])


def test_encode_batch_invariances_on_random_scenes(params):
    # the training path: translation and neighbour order change no bit
    rng = np.random.default_rng(7)
    counts = (3, 0, 2, 1, 4, 2)
    hists, nbrs = _dyadic_scenes(rng, counts)
    ref = encoder.encode_batch(hists, nbrs, params).value
    shifts = rng.integers(-64, 64, size=(len(counts), 1, 2)).astype(float)
    moved = encoder.encode_batch(
        hists + shifts, [[q + s[0] for q in qs] for qs, s in zip(nbrs, shifts)],
        params).value
    shuffled = encoder.encode_batch(
        hists, [[qs[k] for k in rng.permutation(len(qs))] for qs in nbrs],
        params).value
    assert np.array_equal(moved, ref)
    assert np.array_equal(shuffled, ref)


def test_mean_aggregation_over_neighbors(params):
    hist = _dyadic_history()
    qa, qb = _dyadic_neighbor(1.0, 2.0), _dyadic_neighbor(-2.0, 0.5)
    ea = encoder.encode(hist, [qa], params)[params.d_e:]
    eb = encoder.encode(hist, [qb], params)[params.d_e:]
    both = encoder.encode(hist, [qa, qb], params)[params.d_e:]
    assert np.allclose(both, 0.5 * (ea + eb), atol=1e-12)


def test_batch_matches_single(params):
    rng = np.random.default_rng(0)
    hists = np.cumsum(rng.uniform(-0.5, 0.5, size=(3, 8, 2)), axis=1)
    nbrs = [[], [hists[0]], [hists[0], hists[1]]]
    batched = encoder.encode_batch(hists, nbrs, params).value
    for i in range(3):
        single = encoder.encode(hists[i], nbrs[i], params)
        assert np.allclose(batched[i], single, atol=1e-10)


def test_gradients_reach_all_weights(params):
    rng = np.random.default_rng(1)
    hists = np.cumsum(rng.uniform(-0.5, 0.5, size=(4, 8, 2)), axis=1)
    nbrs = [[rng.uniform(-1, 1, size=(8, 2))], [],
            [rng.uniform(-1, 1, size=(8, 2)), rng.uniform(-1, 1, size=(8, 2))], []]
    ad.zero_grad(params.weights.values())
    feats = encoder.encode_batch(hists, nbrs, params)
    loss = ad.reduce_sum(ad.square(feats))
    ad.backward(loss)
    for name, node in params.weights.items():
        assert node.grad is not None, name
        assert np.abs(node.grad).max() > 0, name


def test_wrong_history_length(params):
    with pytest.raises(ad.ShapeError):
        encoder.encode(np.zeros((5, 2)), [], params)
    with pytest.raises(ad.ShapeError):
        encoder.encode(_dyadic_history(), [np.zeros((7, 2))], params)


def test_init_deterministic():
    a = encoder.init_encoder(seed=11)
    b = encoder.init_encoder(seed=11)
    assert set(a.weights) == set(b.weights)
    for k in a.weights:
        assert np.array_equal(a.weights[k].value, b.weights[k].value)


def test_encode_deterministic(params):
    hist = _dyadic_history()
    nbrs = [_dyadic_neighbor(1.0, 2.0)]
    assert np.array_equal(encoder.encode(hist, nbrs, params),
                          encoder.encode(hist, nbrs, params))
