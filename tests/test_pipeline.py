"""Whole-model properties that only show up after real training.

These use the session-scoped trained models from conftest: sampled motion
must stay within corpus physics, a barely-noised future must come back
almost unchanged through the denoiser, and breaking the score-trajectory
pairing at training time must destroy conditional adherence.
"""
import numpy as np
import pytest

from trajdiff import data, diffusion, encoder, evaluate
from trajdiff.config import Config

pytestmark = pytest.mark.slow

# corpus physics: no sampled step may exceed the generator's speed cap
# by more than 50% (allows diffusion jitter around legitimate motion)
STEP_BOUND = data.V_MAX * data.DEF_DT * 1.5


def _conditions(trajs, model, value):
    hists = np.stack([t.history for t in trajs])
    nbrs = [t.neighbors for t in trajs]
    feats = encoder.encode_batch(hists, nbrs, model["encoder"]).value
    scores = np.full((len(trajs), 1), value)
    return np.concatenate([feats, scores], axis=1)


def test_sampled_steps_stay_corpus_plausible(eval_subsets, slow_model):
    trajs = eval_subsets["eight"]
    n_s = 12
    cond = np.repeat(_conditions(trajs, slow_model, 0.5), n_s, axis=0)
    origins = np.repeat(np.stack([t.history[-1] for t in trajs]), n_s, axis=0)
    rng = np.random.default_rng(8)
    futures = diffusion.sample_batch(cond, slow_model["schedule"],
                                     slow_model["denoiser"], rng,
                                     origins=origins)
    path = np.concatenate([origins[:, None, :], futures], axis=1)
    steps = np.linalg.norm(np.diff(path, axis=1), axis=2)
    frac = float((steps <= STEP_BOUND).mean())
    assert frac >= 0.99, f"only {frac:.3f} of steps within {STEP_BOUND} m"


def test_one_step_reconstruction_near_zero_noise(world, slow_model,
                                                 slow_scores):
    den = slow_model["denoiser"]
    sched = slow_model["schedule"]
    trajs = sorted(world["train"].trajectories, key=lambda t: t.id)
    rng = np.random.default_rng(4)
    part = [trajs[i] for i in rng.choice(len(trajs), size=64, replace=False)]

    hists = np.stack([t.history for t in part])
    feats = encoder.encode_batch(hists, [t.neighbors for t in part],
                                 slow_model["encoder"]).value
    scores = np.array([[slow_scores[t.id]] for t in part])
    cond = np.concatenate([feats, scores], axis=1)

    y0 = np.stack([t.future - t.history[-1] for t in part]) / den.scale
    ab = float(sched.alpha_bar[0])
    eps = rng.standard_normal(y0.shape)
    y1 = np.sqrt(ab) * y0 + np.sqrt(1.0 - ab) * eps
    eps_hat = diffusion.denoise_batch(y1, cond, np.ones(len(part), dtype=int),
                                      den).value
    y0_hat = (y1 - np.sqrt(1.0 - ab) * eps_hat) / np.sqrt(ab)

    err_m = float(den.scale * np.linalg.norm(y0_hat - y0, axis=2).mean())
    assert err_m < 0.05, f"mean one-step reconstruction error {err_m:.4f} m"


def test_shuffled_score_assignment_loses_adherence(world, eval_subsets,
                                                   slow_model, slow_scores):
    rng = np.random.default_rng(6)
    ids = sorted(slow_scores)
    vals = np.array([slow_scores[i] for i in ids])
    broken = dict(zip(ids, vals[rng.permutation(len(vals))]))
    cfg = Config(diffusion_epochs=15, seed=0)
    den_broken, _ = diffusion.train_diffusion(world["corpus"], broken,
                                              slow_model["encoder"],
                                              slow_model["schedule"], cfg)

    trajs = eval_subsets["eight"][:6]
    hists = [t.history for t in trajs]
    nbrs = [t.neighbors for t in trajs]
    kw = dict(kind="slow-down", grid_size=8, n_s=6, seed=5)
    good = evaluate.adherence_curve(hists, nbrs, slow_model["encoder"],
                                    slow_model["schedule"],
                                    slow_model["denoiser"], **kw)
    bad = evaluate.adherence_curve(hists, nbrs, slow_model["encoder"],
                                   slow_model["schedule"], den_broken, **kw)
    # correct pairing steers speed down the grid; a shuffled pairing cannot
    assert good.rho < bad.rho
    assert good.adheres
