"""The graph-free inference forwards against their autodiff references.

Sampling, prediction and corpus scoring run the encoder, scorer and
denoiser on plain arrays.  Each forward must equal the autodiff forward it
replaces bit for bit (``np.array_equal``), not merely within a tolerance.
"""

import numpy as np
import pytest

import trajdiff.autodiff as ad
from trajdiff import diffusion, encoder, scoring

T = 100


@pytest.fixture(scope="module")
def enc():
    return encoder.init_encoder(seed=4)


def _random_weights(weights, rng, scale=0.1):
    for w in weights.values():
        w.value[...] = rng.uniform(-scale, scale, w.value.shape)


@pytest.fixture(scope="module", params=[1, 2], ids=["1score", "2scores"])
def denoiser(request, enc):
    p = diffusion.init_denoiser(enc.feature_dim, m=12,
                                n_scores=request.param, max_t=T, seed=5)
    # a non-zero output head, so the whole network reaches the output
    out_w = p.weights["den.out.w"].value
    out_w[...] = np.random.default_rng(6).uniform(-0.2, 0.2, out_w.shape)
    return p


@pytest.mark.parametrize("b", [1, 20, 400])
@pytest.mark.parametrize("t", [1, 50, T])
def test_denoiser_matches_autodiff(denoiser, b, t):
    rng = np.random.default_rng(100 * b + t)
    y_t = rng.standard_normal((b, denoiser.m, 2))
    cond = rng.standard_normal((b, denoiser.feature_dim + denoiser.n_scores))
    ts = np.full(b, t)
    ref = diffusion.denoise_batch(y_t, cond, ts, denoiser).value
    out = diffusion._denoise(y_t, cond, ts, denoiser)
    assert np.any(ref != 0.0)
    assert np.array_equal(out, ref)


def test_denoiser_matches_autodiff_mixed_steps(denoiser):
    rng = np.random.default_rng(7)
    y_t = rng.standard_normal((5, denoiser.m, 2))
    cond = rng.standard_normal((5, denoiser.feature_dim + denoiser.n_scores))
    ts = np.array([1, 2, 50, 99, T])
    assert np.array_equal(diffusion._denoise(y_t, cond, ts, denoiser),
                          diffusion.denoise_batch(y_t, cond, ts, denoiser).value)


def test_denoiser_non_finite_raises_numerics_error(enc):
    p = diffusion.init_denoiser(enc.feature_dim, m=12, max_t=T, seed=5)
    p.weights["den.b0.f1.w"].value[0, 0] = np.inf
    cond = np.zeros((2, enc.feature_dim + 1))
    with pytest.raises(ad.NumericsError):
        diffusion._denoise(np.ones((2, 12, 2)), cond, np.array([3, 3]), p)


def test_sampling_chain_matches_autodiff_chain(enc, denoiser):
    # sample_batch's reverse chain, replayed step by step on the autodiff
    # forward with the same noise stream
    sched = diffusion.make_schedule(T=6, beta_start=0.01, beta_end=0.2)
    rng = np.random.default_rng(8)
    cond = rng.standard_normal((3, denoiser.feature_dim + denoiser.n_scores))
    out = diffusion.sample_batch(cond, sched, denoiser,
                                 np.random.default_rng(9))
    noise = np.random.default_rng(9)
    y = noise.standard_normal((3, denoiser.m, 2))
    for t in range(sched.T, 0, -1):
        eps = diffusion.denoise_batch(y, cond, np.full(3, t), denoiser).value
        beta, ab = sched.beta[t - 1], sched.alpha_bar[t - 1]
        y = (y - beta / np.sqrt(1.0 - ab) * eps) / np.sqrt(sched.alpha[t - 1])
        if t > 1:
            y = y + np.sqrt(beta) * noise.standard_normal((3, denoiser.m, 2))
    assert np.array_equal(out, y * denoiser.scale)


def _track(rng, n=8):
    return np.cumsum(rng.uniform(-0.5, 0.5, size=(n, 2)), axis=0)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_encoder_matches_autodiff(enc, k):
    rng = np.random.default_rng(10 + k)
    hist = _track(rng)
    nbrs = [_track(rng) for _ in range(k)]
    ref = encoder.encode_batch(hist[None], [nbrs], enc).value
    assert np.array_equal(encoder.features(hist[None], [nbrs], enc), ref)
    assert np.array_equal(encoder.encode(hist, nbrs, enc), ref[0])


def test_encoder_batch_with_mixed_neighbor_counts(enc):
    rng = np.random.default_rng(20)
    hists = np.stack([_track(rng) for _ in range(5)])
    nbrs = [[_track(rng) for _ in range(k)] for k in (2, 0, 3, 1, 0)]
    ref = encoder.encode_batch(hists, nbrs, enc).value
    assert np.array_equal(encoder.features(hists, nbrs, enc), ref)


def test_encoder_features_keeps_shape_checks(enc):
    with pytest.raises(ad.ShapeError):
        encoder.features(np.zeros((2, 7, 2)), [[], []], enc)
    with pytest.raises(ad.ShapeError):
        encoder.features(np.zeros((2, 8, 2)), [[]], enc)
    with pytest.raises(ad.ShapeError):
        encoder.features(np.zeros((1, 8, 2)), [[np.zeros((5, 2))]], enc)


def test_scorer_matches_autodiff(enc):
    rng = np.random.default_rng(30)
    scorer = scoring.init_scorer(enc.feature_dim, m=12, seed=3)
    _random_weights(scorer.weights, rng, scale=0.5)
    for _ in range(10):
        f = rng.standard_normal(enc.feature_dim)
        fut = rng.standard_normal((12, 2))
        ref = scoring.score_features(ad.constant(f[None]), fut[None], scorer)
        assert scoring.score(f, fut, scorer) == float(ref.value[0, 0])
