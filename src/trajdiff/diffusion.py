"""Conditional denoising diffusion over future trajectories.

Futures are flattened to m x 2 arrays, expressed ego-relative and scaled to
roughly unit variance.  A fixed noising schedule corrupts them; a small
transformer, conditioned on the history feature and one or more constraint
scores, is trained to predict the added noise.  Sampling runs the reverse
process from pure noise, steered by the requested score values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import trajdiff.autodiff as ad
from trajdiff import data as data_mod
from trajdiff import encoder as enc_mod


# ---------------------------------------------------------------------------
# noising schedule

@dataclass
class DiffusionSchedule:
    T: int
    beta: np.ndarray        # beta[t-1] is the noise added at step t
    alpha: np.ndarray
    alpha_bar: np.ndarray
    # constructor arguments, kept so the schedule can be serialized
    beta_start: float = 1e-4
    beta_end: float = 0.05
    kind: str = "linear"


def make_schedule(T=100, beta_start=1e-4, beta_end=0.05, kind="linear"):
    if T < 1:
        raise ValueError(f"schedule needs T >= 1, got {T}")
    if not 0 < beta_start <= beta_end < 1:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, "
                         f"got [{beta_start}, {beta_end}]")
    if kind == "linear":
        beta = np.linspace(beta_start, beta_end, T)
    elif kind == "cosine":
        # squared-cosine cumulative schedule, betas clipped below 1
        s = 0.008
        steps = np.arange(T + 1) / T
        ab = np.cos((steps + s) / (1 + s) * np.pi / 2) ** 2
        ab /= ab[0]
        beta = np.clip(1.0 - ab[1:] / ab[:-1], beta_start, 0.999)
    else:
        raise ValueError(f"unknown schedule kind '{kind}'")
    alpha = 1.0 - beta
    return DiffusionSchedule(T, beta, alpha, np.cumprod(alpha),
                             beta_start, beta_end, kind)


def noise_to_t(y0, t, schedule, eps):
    """Closed-form forward marginal: sqrt(ab_t) y0 + sqrt(1 - ab_t) eps."""
    if not 1 <= t <= schedule.T:
        raise ValueError(f"t={t} outside schedule range 1..{schedule.T}")
    y0 = np.asarray(y0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if y0.shape != eps.shape:
        raise ValueError(f"y0 shape {y0.shape} != eps shape {eps.shape}")
    ab = schedule.alpha_bar[t - 1]
    return math.sqrt(ab) * y0 + math.sqrt(1.0 - ab) * eps


# ---------------------------------------------------------------------------
# denoiser

@dataclass
class DenoiserParams:
    m: int
    feature_dim: int
    n_scores: int
    width: int
    heads: int
    depth: int
    time_dim: int
    cond_dim: int
    pos_dim: int
    scale: float            # meters per model unit, set during training
    weights: dict
    time_table: np.ndarray = field(repr=False, default=None)
    pos_table: np.ndarray = field(repr=False, default=None)


def _sinusoid_table(count, dim):
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    angles = np.arange(count)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def init_denoiser(feature_dim, m=12, n_scores=1, width=64, heads=4, depth=2,
                  time_dim=32, cond_dim=32, pos_dim=16, max_t=1000, seed=0):
    """Transformer denoiser; the output head starts at zero so the untrained
    model predicts zero noise exactly."""
    if width % heads != 0:
        raise ValueError(f"width {width} not divisible by heads {heads}")
    rng = np.random.default_rng(seed)
    w = {}

    def lin(name, din, dout, zero=False):
        s = 0.0 if zero else 1.0 / math.sqrt(din)
        w[f"{name}.w"] = ad.parameter(rng.uniform(-s, s, size=(din, dout)))
        w[f"{name}.b"] = ad.parameter(np.zeros(dout))

    lin("den.cond", feature_dim + n_scores, cond_dim)
    token = 2 + time_dim + cond_dim + n_scores + pos_dim
    lin("den.in", token, width)
    for i in range(depth):
        for part in ("q", "k", "v", "o"):
            lin(f"den.b{i}.{part}", width, width)
        lin(f"den.b{i}.f1", width, 4 * width)
        lin(f"den.b{i}.f2", 4 * width, width)
    lin("den.out", width, 2, zero=True)
    return DenoiserParams(m, feature_dim, n_scores, width, heads, depth,
                          time_dim, cond_dim, pos_dim, 1.0, w,
                          _sinusoid_table(max_t + 1, time_dim),
                          _sinusoid_table(m, pos_dim))


def _layer_norm(x, ones_row):
    mu = ad.reduce_mean(x, axis=2, keepdims=True)
    cent = ad.sub(x, ad.matmul(mu, ones_row))
    var = ad.reduce_mean(ad.square(cent), axis=2, keepdims=True)
    sd = ad.sqrt(ad.add(var, ad.constant(1e-6)))
    return ad.div(cent, ad.matmul(sd, ones_row))


def _linear3(x, params, name):
    return ad.add(ad.matmul(x, params.weights[f"{name}.w"]),
                  params.weights[f"{name}.b"])


def _attention(x, params, block):
    width, heads = params.width, params.heads
    hd = width // heads
    q = _linear3(x, params, f"den.b{block}.q")
    k = _linear3(x, params, f"den.b{block}.k")
    v = _linear3(x, params, f"den.b{block}.v")
    outs = []
    for h in range(heads):
        lo, hi = h * hd, (h + 1) * hd
        qh = ad.slice_axis(q, 2, lo, hi)
        kh = ad.slice_axis(k, 2, lo, hi)
        vh = ad.slice_axis(v, 2, lo, hi)
        att = ad.matmul(qh, ad.transpose_last2(kh))
        att = ad.softmax(ad.mul(att, ad.constant(1.0 / math.sqrt(hd))))
        outs.append(ad.matmul(att, vh))
    return _linear3(ad.concat(outs, axis=2), params, f"den.b{block}.o")


def _ffn(x, params, block):
    h = ad.leaky_relu(_linear3(x, params, f"den.b{block}.f1"))
    return _linear3(h, params, f"den.b{block}.f2")


def _check_inputs(y_t, cond_shape, params):
    y_t = np.asarray(y_t, dtype=float)
    b, m, _ = y_t.shape
    if m != params.m:
        raise ad.ShapeError(f"denoise: {m} future steps, model expects {params.m}")
    want = params.feature_dim + params.n_scores
    if cond_shape != (b, want):
        raise ad.ShapeError(f"denoise: condition shape {cond_shape}, "
                            f"expected ({b}, {want})")
    return y_t


def denoise_batch(y_t, cond_arr, ts, params):
    """Predict the noise for a batch: y_t (B,m,2), cond (B, F+S), ts (B,).

    This is the training path and the reference that :func:`_denoise`
    reproduces.
    """
    cond_arr = ad.constant(np.asarray(cond_arr, dtype=float))
    y_t = _check_inputs(y_t, cond_arr.value.shape, params)
    b, m, _ = y_t.shape
    ts = np.asarray(ts, dtype=int)
    want = params.feature_dim + params.n_scores

    cond_proj = ad.add(ad.matmul(cond_arr, params.weights["den.cond.w"]),
                       params.weights["den.cond.b"])
    raw_scores = ad.slice_axis(cond_arr, 1, params.feature_dim, want)
    per_step = ad.concat([ad.broadcast_rows(cond_proj, m),
                          ad.broadcast_rows(raw_scores, m)], axis=2)
    temb = np.broadcast_to(params.time_table[ts][:, None, :],
                           (b, m, params.time_dim)).copy()
    pos = np.broadcast_to(params.pos_table[None], (b, m, params.pos_dim)).copy()
    tokens = ad.concat([ad.constant(y_t), ad.constant(temb), per_step,
                        ad.constant(pos)], axis=2)

    ones_row = ad.constant(np.ones((1, params.width)))
    x = _linear3(tokens, params, "den.in")
    for i in range(params.depth):
        x = ad.add(x, _attention(_layer_norm(x, ones_row), params, i))
        x = ad.add(x, _ffn(_layer_norm(x, ones_row), params, i))
    return _linear3(_layer_norm(x, ones_row), params, "den.out")


# ---------------------------------------------------------------------------
# graph-free forward: the numpy kernels of denoise_batch in the same order,
# without the graph, so the output is bit-identical to denoise_batch(...).value

def _affine(x, w, name):
    out = x @ w[f"{name}.w"].value
    out += w[f"{name}.b"].value
    return out


def _layer_norm_values(x):
    # broadcasting gives the same values as _layer_norm's products with a
    # ones row, which are exact
    cent = x - x.mean(axis=2, keepdims=True)
    var = (cent * cent).mean(axis=2, keepdims=True)
    var += 1e-6
    cent /= np.sqrt(var)
    return cent


def _attention_values(x, w, block, heads):
    b, m, width = x.shape
    hd = width // heads

    def per_head(name, axes):
        # (B, m, W) -> contiguous (B, H, ., .): a strided operand would send
        # matmul down a different kernel and change the last bits
        out = _affine(x, w, f"den.b{block}.{name}").reshape(b, m, heads, hd)
        return np.ascontiguousarray(out.transpose(axes))

    q = per_head("q", (0, 2, 1, 3))
    k_t = per_head("k", (0, 2, 3, 1))
    v = per_head("v", (0, 2, 1, 3))
    att = q @ k_t
    att *= 1.0 / math.sqrt(hd)
    ad.softmax_values(att, out=att)
    mixed = (att @ v).transpose(0, 2, 1, 3).reshape(b, m, width)
    return _affine(mixed, w, f"den.b{block}.o")


def _denoise(y_t, cond, ts, params):
    """Noise prediction on plain arrays: y_t (B,m,2), cond (B, F+S), ts (B,).

    Bit-identical to ``denoise_batch(y_t, cond, ts, params).value``; checks
    finiteness once, on the output, and raises ``ad.NumericsError``.
    """
    cond = np.ascontiguousarray(cond, dtype=float)
    y_t = _check_inputs(y_t, cond.shape, params)
    b, m, _ = y_t.shape
    w = params.weights
    cond_proj = _affine(cond, w, "den.cond")
    temb = params.time_table[np.asarray(ts, dtype=int)]
    tokens = np.concatenate([
        y_t,
        np.broadcast_to(temb[:, None, :], (b, m, params.time_dim)),
        np.broadcast_to(cond_proj[:, None, :], (b, m, params.cond_dim)),
        np.broadcast_to(cond[:, None, params.feature_dim:], (b, m, params.n_scores)),
        np.broadcast_to(params.pos_table[None], (b, m, params.pos_dim)),
    ], axis=2)
    with np.errstate(all="ignore"):
        x = _affine(tokens, w, "den.in")
        for i in range(params.depth):
            x += _attention_values(_layer_norm_values(x), w, i, params.heads)
            h = _affine(_layer_norm_values(x), w, f"den.b{i}.f1")
            ad.leaky_relu_values(h, out=h)
            x += _affine(h, w, f"den.b{i}.f2")
        out = _affine(_layer_norm_values(x), w, "den.out")
    if not np.isfinite(out.sum()):
        raise ad.NumericsError(f"denoiser produced non-finite values "
                               f"(shape {out.shape})")
    return out


# ---------------------------------------------------------------------------
# training

def _relative_futures(trajs):
    return np.stack([t.future - t.history[-1] for t in trajs])


def _frozen_features(trajs, enc_params, chunk=256):
    out = []
    for lo in range(0, len(trajs), chunk):
        part = trajs[lo:lo + chunk]
        hists = np.stack([t.history for t in part])
        nbrs = [t.neighbors for t in part]
        out.append(enc_mod.features(hists, nbrs, enc_params))
    return np.concatenate(out, axis=0)


def train_diffusion(corpus, scores, enc_params, schedule, config,
                    use_all_data=False):
    """Train the denoiser on (history feature, score)-conditioned futures.

    `scores` maps trajectory id to that trajectory's constraint score(s),
    as produced by a trained preference scorer over the corpus.  The
    encoder stays frozen.  Futures are ego-relative and divided by a
    corpus-wide scale stored on the returned params.  The id-hash test
    split is held out unless use_all_data is set.  Returns (params,
    report with per-epoch mean loss).
    """
    trajs = corpus.trajectories
    if not use_all_data:
        trajs = [t for t in trajs if not data_mod.is_test_id(t.id)]
    if not trajs:
        raise ValueError("train_diffusion: no training trajectories")
    score_rows = []
    for t in trajs:
        if t.id not in scores:
            raise ValueError(f"missing score for trajectory {t.id}")
        score_rows.append(np.atleast_1d(np.asarray(scores[t.id], dtype=float)))
    score_arr = np.stack(score_rows)
    n_scores = score_arr.shape[1]

    m = corpus.m
    rel = _relative_futures(trajs)
    denoiser = init_denoiser(enc_params.feature_dim, m=m, n_scores=n_scores,
                             width=config.width, heads=config.heads,
                             depth=config.depth, max_t=schedule.T,
                             seed=config.seed)
    denoiser.scale = float(rel.std())
    y0 = rel / denoiser.scale

    feats = _frozen_features(trajs, enc_params)
    conds = np.concatenate([feats, score_arr], axis=1)

    opt = ad.Adam(denoiser.weights, lr=config.diffusion_lr)
    rng = np.random.default_rng(config.seed)
    report = {"epochs": [], "scale": denoiser.scale, "trained_on": len(trajs)}

    count = len(trajs)
    for epoch in range(config.diffusion_epochs):
        perm = rng.permutation(count)
        total, batches = 0.0, 0
        for lo in range(0, count, config.diffusion_batch):
            idx = perm[lo:lo + config.diffusion_batch]
            b = len(idx)
            ts = rng.integers(1, schedule.T + 1, size=b)
            eps = rng.standard_normal((b, m, 2))
            ab = schedule.alpha_bar[ts - 1][:, None, None]
            y_t = np.sqrt(ab) * y0[idx] + np.sqrt(1.0 - ab) * eps

            ad.zero_grad(denoiser.weights.values())
            eps_hat = denoise_batch(y_t, conds[idx], ts, denoiser)
            diff = ad.sub(eps_hat, ad.constant(eps))
            loss = ad.mul(ad.reduce_sum(ad.square(diff), axis=None),
                          ad.constant(1.0 / b))
            ad.backward(loss)
            opt.step()
            total += float(loss.value[0])
            batches += 1
        report["epochs"].append({"epoch": epoch, "loss": total / batches})
    return denoiser, report


# ---------------------------------------------------------------------------
# sampling

def conditions(feats, scores, n_s):
    """Condition rows for sampling: n_s draws per (feature, score vector).

    feats (H, F) history features and scores (G, S) score vectors give
    H * G * n_s rows [feats[h], scores[g]], ordered by history, then score
    vector, then draw.
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    per_history = len(scores) * n_s
    return np.concatenate([np.repeat(feats, per_history, axis=0),
                           np.tile(np.repeat(scores, n_s, axis=0), (len(feats), 1))],
                          axis=1)


def _reverse_chain(y, cond_arr, schedule, params, mode, draw_noise):
    """Shared reverse loop; draw_noise(b, m) supplies the ancestral noise."""
    b = cond_arr.shape[0]
    for t in range(schedule.T, 0, -1):
        eps_hat = _denoise(y, cond_arr, np.full(b, t), params)
        beta = schedule.beta[t - 1]
        ab = schedule.alpha_bar[t - 1]
        y = (y - beta / math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(schedule.alpha[t - 1])
        if mode == "ancestral" and t > 1:
            y = y + math.sqrt(beta) * draw_noise(b, params.m)
    return y


def _check_mode(mode):
    if mode not in ("ancestral", "paper-mean"):
        raise ValueError(f"unknown sampling mode '{mode}'")


def sample_batch(cond_arr, schedule, params, rng, mode="ancestral", origins=None):
    """Reverse process for B conditions at once; returns (B, m, 2) in meters.

    mode "paper-mean" applies the deterministic mean update only; mode
    "ancestral" adds sqrt(beta_t) noise for every step except the last.
    """
    _check_mode(mode)
    cond_arr = np.asarray(cond_arr, dtype=float)
    y = rng.standard_normal((cond_arr.shape[0], params.m, 2))
    y = _reverse_chain(y, cond_arr, schedule, params, mode,
                       lambda b, m: rng.standard_normal((b, m, 2)))
    out = y * params.scale
    if origins is not None:
        out = out + np.asarray(origins, dtype=float)[:, None, :]
    return out


def predict_best_of(history, neighbors, enc_params, schedule, params,
                    n_c, n_s, seed=0, mode="ancestral"):
    """Sample n_s futures at each of n_c score values on a midpoint grid.

    Returns a list of (score_value, draw_index, future) with futures in
    world coordinates.  Each grid point uses an RNG derived from
    (seed, grid index), so grid points can be generated independently.
    Multi-score models receive the same grid value on every score channel.
    """
    if n_c < 1 or n_s < 1:
        raise ValueError("predict_best_of: need n_c >= 1 and n_s >= 1")
    _check_mode(mode)
    f = enc_mod.encode(history, neighbors, enc_params)
    origin = np.asarray(history, dtype=float)[-1]
    grid = (np.arange(n_c) + 0.5) / n_c
    # all grid points share one reverse chain for speed; every grid point
    # keeps its own noise stream so its draws do not depend on n_c
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, ci)))
            for ci in range(n_c)]
    conds = conditions(f, np.repeat(grid[:, None], params.n_scores, axis=1), n_s)
    m = params.m

    def draw_noise(b, _):
        return np.concatenate([r.standard_normal((n_s, m, 2)) for r in rngs])

    y = draw_noise(n_c * n_s, m)
    y = _reverse_chain(y, conds, schedule, params, mode, draw_noise)
    futures = y * params.scale + origin
    out = []
    for ci, c in enumerate(grid):
        for di in range(n_s):
            out.append((float(c), di, futures[ci * n_s + di]))
    return out
