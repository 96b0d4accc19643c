"""The graph-free inference forwards against their autodiff references.

Sampling, prediction and corpus scoring run the encoder, scorer and
denoiser on plain arrays.  Each forward must equal the autodiff forward it
replaces bit for bit (``np.array_equal``), not merely within a tolerance.
"""

import numpy as np
import pytest

import trajdiff.autodiff as ad
from trajdiff import data, diffusion, encoder, scoring

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
    # forward: 3 histories x 2 score vectors x 2 draws = 12 rows, ordered
    # by history, score vector and draw, and 3 noise streams of 4 rows each
    sched = diffusion.make_schedule(T=6, beta_start=0.01, beta_end=0.2)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((3, denoiser.feature_dim))
    scores = rng.uniform(0.0, 1.0, (2, denoiser.n_scores))
    origins = rng.standard_normal((3, 2))
    out = diffusion.sample_batch(
        feats, scores, 2, origins, sched, denoiser,
        [np.random.default_rng(s) for s in (9, 10, 11)])
    cond = np.array([np.concatenate([f, c])
                     for f in feats for c in scores for _ in range(2)])
    streams = [np.random.default_rng(s) for s in (9, 10, 11)]

    def noise():
        return np.concatenate([r.standard_normal((4, denoiser.m, 2))
                               for r in streams])

    y = noise()
    for t in range(sched.T, 0, -1):
        eps = diffusion.denoise_batch(y, cond, np.full(12, t), denoiser).value
        beta, ab = sched.beta[t - 1], sched.alpha_bar[t - 1]
        y = (y - beta / np.sqrt(1.0 - ab) * eps) / np.sqrt(sched.alpha[t - 1])
        if t > 1:
            y = y + np.sqrt(beta) * noise()
    ref = y * denoiser.scale + np.repeat(origins, 4, axis=0)[:, None, :]
    assert out.shape == (3, 2, 2, denoiser.m, 2)
    assert np.array_equal(out.reshape(12, denoiser.m, 2), ref)


def _track(rng, n=8):
    return np.cumsum(rng.uniform(-0.5, 0.5, size=(n, 2)), axis=0)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_encoder_matches_autodiff(enc, k):
    rng = np.random.default_rng(10 + k)
    hist = _track(rng)
    nbrs = [_track(rng) for _ in range(k)]
    ref = encoder.encode_batch(hist[None], [nbrs], enc).value
    assert np.array_equal(encoder.encode(hist, nbrs, enc), ref[0])


def test_encoder_batch_with_mixed_neighbor_counts(enc):
    # a history's feature does not depend on the histories that share its
    # batch, so a sweep samples from the feature predict and eval use
    rng = np.random.default_rng(20)
    hists = np.stack([_track(rng) for _ in range(5)])
    nbrs = [[_track(rng) for _ in range(k)] for k in (2, 0, 3, 1, 0)]
    many = encoder.encode_many(hists, nbrs, enc)
    assert np.array_equal(many[1:3],
                          encoder.encode_many(hists[1:3], nbrs[1:3], enc))
    for i in range(5):
        assert np.array_equal(many[i], encoder.encode(hists[i], nbrs[i], enc))


def test_encoder_features_keeps_shape_checks(enc):
    with pytest.raises(ad.ShapeError):
        encoder.encode_many(np.zeros((2, 7, 2)), [[], []], enc)
    with pytest.raises(ad.ShapeError):
        encoder.encode_many(np.zeros((2, 8, 2)), [[]], enc)
    with pytest.raises(ad.ShapeError):
        encoder.encode_many(np.zeros((1, 8, 2)), [[np.zeros((5, 2))]], enc)


def test_scorer_matches_autodiff(enc):
    rng = np.random.default_rng(30)
    scorer = scoring.init_scorer(enc.feature_dim, m=12, seed=3)
    _random_weights(scorer.weights, rng, scale=0.5)
    for _ in range(10):
        f = rng.standard_normal(enc.feature_dim)
        fut = rng.standard_normal((12, 2))
        ref = scoring.score_features(ad.constant(f[None]), fut[None], scorer)
        assert scoring.score(f, fut, scorer) == float(ref.value[0, 0])


def _random_encoder(seed):
    enc = encoder.init_encoder(seed=seed)
    _random_weights(enc.weights, np.random.default_rng(seed), scale=0.5)
    return enc


def test_encode_many_matches_encode_batch_per_history():
    enc = _random_encoder(40)
    rng = np.random.default_rng(41)
    counts = (2, 0, 3, 1, 2, 0, 2)
    hists = np.stack([_track(rng) for _ in counts])
    nbrs = [[_track(rng) for _ in range(k)] for k in counts]
    many = encoder.encode_many(hists, nbrs, enc)
    shuffled = encoder.encode_many(hists, [q[::-1] for q in nbrs], enc)
    for i in range(len(counts)):
        ref = encoder.encode_batch(hists[i][None], [nbrs[i]], enc).value[0]
        assert np.array_equal(many[i], ref)
        assert np.array_equal(shuffled[i], ref)


def test_score_corpus_matches_per_trajectory_autodiff():
    # neighbour counts 0..3, with 3 occurring once, so that a count group of
    # one history and groups of several are both exercised
    enc = _random_encoder(50)
    scorer = scoring.init_scorer(enc.feature_dim, m=12, seed=3)
    rng = np.random.default_rng(51)
    _random_weights(scorer.weights, rng, scale=0.5)
    trajs = [data.Trajectory(id=10 + i, history=_track(rng),
                             future=_track(rng, 12) + 1.0,
                             neighbors=[_track(rng) for _ in range(k)])
             for i, k in enumerate((0, 1, 2, 1, 3, 2, 0, 2, 1))]
    corpus = data.Corpus(trajs, {"n": 8, "m": 12, "dt": 0.4})
    rows = scoring.score_corpus(corpus, scorer, enc)
    assert [tid for tid, _ in rows] == [t.id for t in trajs]
    for t, (_, got) in zip(trajs, rows):
        feats = encoder.encode_batch(t.history[None], [t.neighbors], enc)
        rel = (t.future - t.history[-1])[None]
        ref = scoring.score_features(feats, rel, scorer).value[0, 0]
        assert got == ref
    assert len({s for _, s in rows}) == len(rows)


def test_score_many_keeps_shape_checks(enc):
    scorer = scoring.init_scorer(enc.feature_dim, m=12, seed=3)
    with pytest.raises(ad.ShapeError):
        scoring.score_many(np.zeros((2, enc.feature_dim)),
                           np.zeros((3, 12, 2)), scorer)
    with pytest.raises(ad.ShapeError):
        scoring.score_many(np.zeros((2, 5)), np.zeros((2, 12, 2)), scorer)
    with pytest.raises(ad.ShapeError):
        scoring.score_many(np.zeros((2, enc.feature_dim)),
                           np.zeros((2, 7, 2)), scorer)

