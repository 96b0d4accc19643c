"""Tests for the noise schedule, denoiser, and trajectory sampler."""

import math

import numpy as np
import pytest

from trajdiff import autodiff as ad
from trajdiff import data, diffusion, encoder
from trajdiff.config import Config


# ---------------------------------------------------------------------------
# noise schedule

def test_schedule_default_linear():
    s = diffusion.make_schedule()
    assert s.T == 100
    assert s.beta.shape == (100,)
    assert s.beta[0] == 1e-4 and s.beta[-1] == 0.05
    # strictly decreasing cumulative signal fraction, nearly pure noise at T
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] < 0.1
    assert abs(s.alpha_bar[-1] - 0.07823431562186839) < 1e-12


def test_schedule_cumprod_consistency():
    # recompute alpha_bar through logs, a different floating-point path
    s = diffusion.make_schedule(T=40, beta_start=5e-4, beta_end=0.08)
    ref = np.exp(np.cumsum(np.log1p(-s.beta)))
    assert np.allclose(s.alpha_bar, ref, rtol=1e-12, atol=0.0)
    assert np.allclose(s.alpha, 1.0 - s.beta, rtol=0.0, atol=0.0)


def test_schedule_single_step():
    s = diffusion.make_schedule(T=1, beta_start=0.3, beta_end=0.3)
    assert s.beta.shape == (1,)
    assert s.alpha_bar[0] == s.alpha[0] == 1.0 - 0.3


def test_schedule_cosine():
    s = diffusion.make_schedule(T=100, kind="cosine")
    assert np.all(s.beta > 0.0) and np.all(s.beta < 1.0)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert s.alpha_bar[-1] < s.alpha_bar[0]


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        diffusion.make_schedule(T=0)
    with pytest.raises(ValueError):
        diffusion.make_schedule(beta_start=0.0)
    with pytest.raises(ValueError):
        diffusion.make_schedule(beta_end=1.0)
    with pytest.raises(ValueError):
        diffusion.make_schedule(beta_start=0.06, beta_end=0.05)
    with pytest.raises(ValueError):
        diffusion.make_schedule(kind="quadratic")


# ---------------------------------------------------------------------------
# forward noising

def test_noise_to_t_hand_case():
    # T=2 with constant beta 0.5: alpha_bar = [0.5, 0.25], so at t=2
    # y = 0.5*y0 + sqrt(0.75)*eps
    s = diffusion.make_schedule(T=2, beta_start=0.5, beta_end=0.5)
    y0 = np.array([[[1.0, 0.0]]])
    eps = np.array([[[1.0, 1.0]]])
    out = diffusion.noise_to_t(y0, 2, s, eps)
    expect = np.array([[[1.3660254037844386, 0.8660254037844386]]])
    assert np.allclose(out, expect, atol=1e-12)
    out1 = diffusion.noise_to_t(y0, 1, s, eps)
    expect1 = math.sqrt(0.5) * y0 + math.sqrt(0.5) * eps
    assert np.allclose(out1, expect1, atol=1e-12)


def test_noise_to_t_rejects_bad_args():
    s = diffusion.make_schedule(T=10)
    y0 = np.zeros((2, 3, 2))
    with pytest.raises(ValueError):
        diffusion.noise_to_t(y0, 0, s, np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        diffusion.noise_to_t(y0, 11, s, np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        diffusion.noise_to_t(y0, 5, s, np.zeros((2, 4, 2)))


def test_noise_to_t_matches_closed_form_moments():
    # Monte-Carlo check of the marginal at t=60 on the default schedule:
    # mean sqrt(ab)*y0, variance (1 - ab), per coordinate.
    s = diffusion.make_schedule()
    ab = 0.4036134327306567
    assert abs(s.alpha_bar[59] - ab) < 1e-12
    n = 100000
    rng = np.random.default_rng(7)
    y0 = np.broadcast_to(np.array([2.0, -1.0]), (n, 1, 2)).copy()
    eps = rng.standard_normal((n, 1, 2))
    out = diffusion.noise_to_t(y0, 60, s, eps)
    sd = math.sqrt(1.0 - ab)
    mean_tol = 3.0 * sd / math.sqrt(n)
    var_tol = 3.0 * (1.0 - ab) * math.sqrt(2.0 / (n - 1))
    for k, target in enumerate((2.0, -1.0)):
        col = out[:, 0, k]
        assert abs(col.mean() - math.sqrt(ab) * target) < mean_tol
        assert abs(col.var(ddof=1) - (1.0 - ab)) < var_tol


# ---------------------------------------------------------------------------
# denoiser network

FDIM = 24


def tiny_denoiser(n_scores=1, m=6, seed=0):
    return diffusion.init_denoiser(FDIM, m=m, n_scores=n_scores, width=32,
                                   heads=4, depth=2, max_t=100, seed=seed)


def test_denoiser_init_deterministic():
    a = tiny_denoiser(seed=5)
    b = tiny_denoiser(seed=5)
    assert sorted(a.weights) == sorted(b.weights)
    for name in a.weights:
        assert np.array_equal(a.weights[name].value, b.weights[name].value)


def test_denoiser_zero_init_predicts_zero_noise():
    p = tiny_denoiser()
    rng = np.random.default_rng(0)
    cond = np.append(rng.standard_normal(FDIM), 0.7)[None]
    y_t = rng.standard_normal((1, 6, 2))
    out = diffusion._denoise(y_t, cond, np.array([50]), p)
    assert out.shape == (1, 6, 2)
    assert np.all(out == 0.0)


def test_denoiser_output_shape_and_determinism():
    p = tiny_denoiser(m=8)
    # break the zero head so the forward pass exercises every weight
    p.weights["den.out.w"].value[:] = 0.01
    rng = np.random.default_rng(3)
    y_t = rng.standard_normal((4, 8, 2))
    conds = rng.standard_normal((4, FDIM + 1))
    ts = np.array([1, 25, 50, 100])
    a = diffusion.denoise_batch(y_t, conds, ts, p).value
    b = diffusion.denoise_batch(y_t, conds, ts, p).value
    assert a.shape == (4, 8, 2)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a)) and np.any(a != 0.0)


def test_denoiser_sensitive_to_time_and_condition():
    p = tiny_denoiser()
    p.weights["den.out.w"].value[:] = 0.01
    rng = np.random.default_rng(4)
    y_t = rng.standard_normal((1, 6, 2))
    cond = rng.standard_normal((1, FDIM + 1))
    at_1 = diffusion.denoise_batch(y_t, cond, np.array([1]), p).value
    at_90 = diffusion.denoise_batch(y_t, cond, np.array([90]), p).value
    assert not np.array_equal(at_1, at_90)
    other = cond.copy()
    other[0, -1] += 1.0
    moved = diffusion.denoise_batch(y_t, other, np.array([1]), p).value
    assert not np.array_equal(at_1, moved)


def test_denoiser_rejects_mismatched_shapes():
    p = tiny_denoiser(n_scores=2)
    one_score = np.zeros((1, FDIM + 1))
    with pytest.raises(ad.ShapeError):
        diffusion._denoise(np.zeros((1, 6, 2)), one_score, np.array([1]), p)
    good = np.zeros((1, FDIM + 2))
    with pytest.raises(ad.ShapeError):
        diffusion._denoise(np.zeros((1, 7, 2)), good, np.array([1]), p)


# ---------------------------------------------------------------------------
# training

@pytest.fixture(scope="module")
def small_world():
    corpus = data.generate_synthetic("t-intersection", 600, 3)
    enc = encoder.init_encoder(seed=0)
    scores = {}
    for t in corpus.trajectories:
        feats = data.trajectory_features(t.future, t.history, corpus.dt)
        scores[t.id] = 1.0 / (1.0 + feats.mean_speed)
    return corpus, enc, scores


def test_train_initial_loss_near_expected_noise_power(small_world):
    # With the zero-initialised head the predicted noise is zero, so the
    # per-sample loss is |eps|^2 over an m x 2 future: expectation 2m = 24.
    corpus, enc, scores = small_world
    rng = np.random.default_rng(0)
    eps = rng.standard_normal((500, 12, 2))
    direct = float((eps ** 2).sum(axis=(1, 2)).mean())
    assert 0.8 * 24.0 < direct < 1.2 * 24.0
    # a first epoch at a vanishing step size reports the same quantity
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=1, diffusion_lr=1e-7, seed=0)
    _, report = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    loss = report["epochs"][0]["loss"]
    assert 0.8 * 24.0 < loss < 1.2 * 24.0


def test_train_loss_decreases(small_world):
    corpus, enc, scores = small_world
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=10, diffusion_lr=5e-4, seed=0)
    _, report = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    losses = [e["loss"] for e in report["epochs"]]
    assert len(losses) == 10
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_deterministic(small_world):
    corpus, enc, scores = small_world
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=2, seed=9)
    p1, r1 = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    p2, r2 = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    assert r1 == r2
    for name in p1.weights:
        assert np.array_equal(p1.weights[name].value, p2.weights[name].value)


def test_train_holds_out_test_split(small_world):
    corpus, enc, scores = small_world
    train, test = data.split_corpus(corpus)
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=0)
    _, held = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    assert held["trained_on"] == len(train.trajectories)
    _, full = diffusion.train_diffusion(corpus, scores, enc, sched, cfg,
                                      use_all_data=True)
    assert full["trained_on"] == len(corpus.trajectories)


def test_train_rejects_missing_score(small_world):
    corpus, enc, scores = small_world
    partial = dict(scores)
    train, _ = data.split_corpus(corpus)
    del partial[train.trajectories[0].id]
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=1)
    with pytest.raises(ValueError, match="missing score"):
        diffusion.train_diffusion(corpus, partial, enc, sched, cfg)


def test_train_infers_score_width_and_scale(small_world):
    corpus, enc, scores = small_world
    two = {k: np.array([v, 1.0 - v]) for k, v in scores.items()}
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=0)
    p, report = diffusion.train_diffusion(corpus, two, enc, sched, cfg)
    assert p.n_scores == 2
    assert p.scale > 0.0 and report["scale"] == p.scale


# ---------------------------------------------------------------------------
# sampling

def zero_model_setup(T, scale=2.5, m=6):
    sched = diffusion.make_schedule(T=T, beta_start=0.01, beta_end=0.2)
    p = tiny_denoiser(m=m)
    p.scale = scale
    return sched, p


def test_sample_single_step_closed_form():
    # T=1 with a zero noise model: the draw is divided by sqrt(alpha_1),
    # rescaled to meters, and translated to the origin.
    sched = diffusion.make_schedule(T=1, beta_start=0.04, beta_end=0.04)
    p = tiny_denoiser()
    p.scale = 2.5
    cond = diffusion.conditions(np.zeros(FDIM), [0.5], 1)
    origin = np.array([[3.0, 4.0]])
    out = diffusion.sample_batch(cond, sched, p, np.random.default_rng(123),
                                 mode="paper-mean", origins=origin)[0]
    draw = np.random.default_rng(123).standard_normal((1, 6, 2))[0]
    expect = draw / math.sqrt(0.96) * 2.5 + np.array([3.0, 4.0])
    assert np.allclose(out, expect, atol=1e-12)
    # the final step never adds noise, so ancestral agrees at T=1
    anc = diffusion.sample_batch(cond, sched, p, np.random.default_rng(123),
                                 mode="ancestral", origins=origin)[0]
    assert np.array_equal(out, anc)


def test_sample_mean_updates_compound():
    # With zero predicted noise every mean update divides by sqrt(alpha_t),
    # so the paper-mean chain collapses to y_T / sqrt(alpha_bar_T).
    sched, p = zero_model_setup(T=5)
    cond = diffusion.conditions(np.ones(FDIM), [0.2], 1)
    out = diffusion.sample_batch(cond, sched, p, np.random.default_rng(11),
                                 mode="paper-mean")[0]
    draw = np.random.default_rng(11).standard_normal((1, 6, 2))[0]
    expect = draw / math.sqrt(sched.alpha_bar[-1]) * p.scale
    assert np.allclose(out, expect, atol=1e-10)


def test_sample_modes_and_determinism():
    sched, p = zero_model_setup(T=5)
    cond = diffusion.conditions(np.zeros(FDIM), [0.5], 1)
    a = diffusion.sample_batch(cond, sched, p, np.random.default_rng(7))
    b = diffusion.sample_batch(cond, sched, p, np.random.default_rng(7))
    assert np.array_equal(a, b)
    c = diffusion.sample_batch(cond, sched, p, np.random.default_rng(8))
    assert not np.array_equal(a, c)
    mean = diffusion.sample_batch(cond, sched, p, np.random.default_rng(7),
                                  mode="paper-mean")
    assert not np.array_equal(a, mean)


def test_sample_batch_translates_origins():
    sched, p = zero_model_setup(T=3)
    conds = np.zeros((2, FDIM + 1))
    base = diffusion.sample_batch(conds, sched, p, np.random.default_rng(2))
    moved = diffusion.sample_batch(conds, sched, p, np.random.default_rng(2),
                                   origins=np.array([[10.0, -3.0], [0.0, 0.0]]))
    assert np.allclose(moved[0] - base[0], [10.0, -3.0], atol=1e-12)
    assert np.array_equal(moved[1], base[1])


def test_sample_rejects_bad_args():
    sched, p = zero_model_setup(T=3)
    cond = diffusion.conditions(np.zeros(FDIM), [0.5, 0.5], 1)
    with pytest.raises(ad.ShapeError):
        diffusion.sample_batch(cond, sched, p, np.random.default_rng(0))
    good = diffusion.conditions(np.zeros(FDIM), [0.5], 1)
    with pytest.raises(ValueError, match="mode"):
        diffusion.sample_batch(good, sched, p, np.random.default_rng(0),
                               mode="ddim")


# ---------------------------------------------------------------------------
# grid prediction

def test_predict_best_of_structure():
    sched = diffusion.make_schedule(T=5, beta_start=0.01, beta_end=0.2)
    enc = encoder.init_encoder(d_e=16, d_n=8, n=8, seed=1)
    p = diffusion.init_denoiser(enc.feature_dim, m=6, width=32, heads=4,
                                depth=1, max_t=5, seed=0)
    p.scale = 2.0
    hist = np.cumsum(np.full((8, 2), 0.4), axis=0)
    out = diffusion.predict_best_of(hist, np.zeros((0, 8, 2)), enc, sched, p,
                                    n_c=20, n_s=3, seed=4)
    assert len(out) == 60
    cs = sorted({c for c, _, _ in out})
    assert np.allclose(cs, (np.arange(20) + 0.5) / 20, atol=1e-15)
    by_c = {}
    for c, di, fut in out:
        assert fut.shape == (6, 2) and np.all(np.isfinite(fut))
        by_c.setdefault(c, []).append(fut)
    for futs in by_c.values():
        assert not np.array_equal(futs[0], futs[1])
        assert not np.array_equal(futs[1], futs[2])
    again = diffusion.predict_best_of(hist, np.zeros((0, 8, 2)), enc, sched, p,
                                      n_c=20, n_s=3, seed=4)
    for (c1, d1, f1), (c2, d2, f2) in zip(out, again):
        assert c1 == c2 and d1 == d2 and np.array_equal(f1, f2)


def test_predict_best_of_single_point():
    sched = diffusion.make_schedule(T=3, beta_start=0.01, beta_end=0.2)
    enc = encoder.init_encoder(d_e=16, d_n=8, n=8, seed=1)
    p = diffusion.init_denoiser(enc.feature_dim, m=6, width=32, heads=4,
                                depth=1, max_t=3, seed=0)
    p.scale = 1.0
    hist = np.zeros((8, 2))
    out = diffusion.predict_best_of(hist, np.zeros((0, 8, 2)), enc, sched, p,
                                    n_c=1, n_s=1)
    assert len(out) == 1 and out[0][0] == 0.5 and out[0][1] == 0
    with pytest.raises(ValueError):
        diffusion.predict_best_of(hist, np.zeros((0, 8, 2)), enc, sched, p,
                                  n_c=0, n_s=1)


def test_conditioning_changes_samples_after_training(small_world):
    # A short train run is enough for the score channel to steer the
    # deterministic reverse trajectory from a shared y_T.
    corpus, enc, scores = small_world
    sched = diffusion.make_schedule()
    cfg = Config(diffusion_epochs=3, seed=0)
    p, _ = diffusion.train_diffusion(corpus, scores, enc, sched, cfg)
    t0 = corpus.trajectories[0]
    f = encoder.encode(t0.history, t0.neighbors, enc)
    lo = diffusion.conditions(f, [0.1], 1)
    hi = diffusion.conditions(f, [0.9], 1)
    a = diffusion.sample_batch(lo, sched, p, np.random.default_rng(5),
                               mode="paper-mean")[0]
    b = diffusion.sample_batch(hi, sched, p, np.random.default_rng(5),
                               mode="paper-mean")[0]
    gap = float(np.sqrt(((a - b) ** 2).sum(axis=1)).mean())
    assert gap > 0.0


def test_conditions_row_order():
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    rows = diffusion.conditions(feats, [0.5], 2)
    assert rows.tolist() == [[1, 2, 0.5], [1, 2, 0.5], [3, 4, 0.5], [3, 4, 0.5]]
    grid = diffusion.conditions(feats[0], [[0.1, 0.2], [0.3, 0.4]], 2)
    assert grid.tolist() == [[1, 2, 0.1, 0.2], [1, 2, 0.1, 0.2],
                             [1, 2, 0.3, 0.4], [1, 2, 0.3, 0.4]]
