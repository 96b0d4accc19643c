"""Pairwise-preference scoring model.

A small MLP with a sigmoid head maps (history feature, flattened ego-relative
future) to a score in (0,1).  Training maximises the likelihood of labeled
preferences between future pairs, where the probability that trajectory a
beats trajectory b is the logistic of (score_a - score_b), minus an entropy
bonus that discourages the score distribution from collapsing onto a point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

import trajdiff.autodiff as ad
from trajdiff import encoder as enc_mod


@dataclass
class ScorerParams:
    feature_dim: int
    m: int
    hidden: tuple
    weights: dict

    @property
    def input_dim(self):
        return self.feature_dim + 2 * self.m


def init_scorer(feature_dim, m=12, hidden=(64, 32), seed=0, zero=False):
    rng = np.random.default_rng(seed)
    weights = {}
    dims = [feature_dim + 2 * m, *hidden, 1]
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        s = 0.0 if zero else 1.0 / math.sqrt(din)
        weights[f"score.w{i}"] = ad.parameter(rng.uniform(-s, s, size=(din, dout)))
        weights[f"score.b{i}"] = ad.parameter(np.zeros(dout))
    return ScorerParams(feature_dim, m, tuple(hidden), weights)


def _mlp(x, params):
    depth = len(params.hidden)
    h = x
    for i in range(depth):
        h = ad.leaky_relu(ad.add(ad.matmul(h, params.weights[f"score.w{i}"]),
                                 params.weights[f"score.b{i}"]))
    out = ad.add(ad.matmul(h, params.weights[f"score.w{depth}"]),
                 params.weights[f"score.b{depth}"])
    return ad.sigmoid(out)        # (..., 1), image in (0,1)


def _check_futures(rel_futures, params):
    rel = np.asarray(rel_futures, dtype=float)
    b = rel.shape[0]
    if rel.shape != (b, params.m, 2):
        raise ad.ShapeError(f"score: futures shape {rel.shape}, "
                            f"expected (B, {params.m}, 2)")
    return rel.reshape(b, 2 * params.m)


def score_features(feats, rel_futures, params):
    """Differentiable scores for a feature node and ego-relative futures."""
    flat = ad.constant(_check_futures(rel_futures, params))
    x = ad.concat([feats, flat], axis=1)
    if x.value.shape[1] != params.input_dim:
        raise ad.ShapeError(f"score: input width {x.value.shape[1]}, "
                            f"expected {params.input_dim}")
    return _mlp(x, params)


def score_many(feats, rel_futures, params):
    """Scores (B,) for B (feature, ego-relative future) pairs on plain arrays.

    Each pair runs as its own (1, K) row on a leading axis, so every score
    equals bit for bit the one :func:`score` gives for that pair alone.  The
    weights enter as constants, so the ops record no graph.
    """
    feats = np.asarray(feats, dtype=float)
    flat = _check_futures(rel_futures, params)
    if feats.shape != (flat.shape[0], params.feature_dim):
        raise ad.ShapeError(f"score: features shape {feats.shape}, "
                            f"expected ({flat.shape[0]}, {params.feature_dim})")
    frozen = replace(params, weights={
        k: ad.constant(w.value) for k, w in params.weights.items()})
    rows = ad.constant(np.concatenate([feats, flat], axis=1)[:, None, :])
    return _mlp(rows, frozen).value[:, 0, 0]


def score(f, future, params):
    """Score one (feature, ego-relative future) pair; deterministic scalar.

    Runs :func:`score_many` on one row, bit-identical to
    :func:`score_features`.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (params.feature_dim,):
        raise ad.ShapeError(f"score: feature shape {f.shape}, "
                            f"expected ({params.feature_dim},)")
    return float(score_many(f[None], np.asarray(future, dtype=float)[None],
                            params)[0])


def _pair_scores(pairs, scorer, params):
    """Stacked scores for winners-and-losers: returns ((2B,1) node, B)."""
    hists = np.stack([p.history for p in pairs])
    nbrs = [p.neighbors for p in pairs]
    rel_a = np.stack([p.future_a - p.history[-1] for p in pairs])
    rel_b = np.stack([p.future_b - p.history[-1] for p in pairs])
    feats = enc_mod.encode_batch(hists, nbrs, params)
    both = ad.concat([feats, feats], axis=0)
    futures = np.concatenate([rel_a, rel_b], axis=0)
    return score_features(both, futures, scorer), len(pairs)


def entropy_penalty(scores, grid_size=20, bandwidth=0.05, normalize=True):
    """Entropy of the batch score distribution on an even grid in (0,1].

    A Gaussian kernel density over the batch scores is evaluated at i/grid
    for i=1..grid; by default the grid values are normalized into a
    probability vector (bounding the entropy by log(grid)), with the raw
    density values available via normalize=False.  Differentiable w.r.t.
    the scores.
    """
    if grid_size < 2:
        raise ValueError(f"entropy grid must have >= 2 points, got {grid_size}")
    if not isinstance(scores, ad.Node):
        scores = ad.constant(np.asarray(scores, dtype=float))
    s = ad.reshape(scores, (scores.value.size, 1))
    b = s.value.shape[0]
    if b < 2:
        raise ValueError("entropy penalty needs at least 2 scores")
    grid = (np.arange(1, grid_size + 1) / grid_size)[None, :]        # (1, K)
    tiled = ad.matmul(s, ad.constant(np.ones((1, grid_size))))       # (B, K)
    diff = ad.sub(tiled, ad.constant(np.broadcast_to(grid, (b, grid_size)).copy()))
    kern = ad.exp(ad.mul(ad.square(diff), ad.constant(-0.5 / bandwidth ** 2)))
    dens = ad.mul(ad.reduce_sum(kern, axis=0),
                  ad.constant(1.0 / (b * bandwidth * math.sqrt(2 * math.pi))))
    if normalize:
        p = ad.div(dens, ad.reduce_sum(dens, axis=None))
    else:
        p = dens
    return ad.mul(ad.reduce_sum(ad.mul(p, ad.log(p)), axis=None), ad.constant(-1.0))


def scorer_loss(pairs, scorer, params, config):
    """Training objective: likelihood term minus the weighted entropy bonus.

    The likelihood term is the negative log likelihood of the labeled
    winners, summed over the batch; with config.lam == 0 it is the whole
    loss.
    """
    if not pairs:
        raise ValueError("empty batch")
    scores, b = _pair_scores(pairs, scorer, params)
    sign = np.array([[1.0] if p.label == 0 else [-1.0] for p in pairs])
    sa = ad.slice_axis(scores, 0, 0, b)
    sb = ad.slice_axis(scores, 0, b, 2 * b)
    margin = ad.mul(ad.sub(sa, sb), ad.constant(sign))
    nll = ad.mul(ad.reduce_sum(ad.log(ad.sigmoid(margin)), axis=None),
                 ad.constant(-1.0))
    if config.lam == 0:
        return nll
    ent = entropy_penalty(scores, config.entropy_grid, config.bandwidth,
                          config.normalize_entropy)
    return ad.sub(nll, ad.mul(ent, ad.constant(config.lam)))


def _holdout_accuracy(pairs, scorer, params):
    if not pairs:
        return float("nan"), np.array([])
    scores, b = _pair_scores(pairs, scorer, params)
    vals = scores.value.ravel()
    sa, sb = vals[:b], vals[b:]
    won = [(sa[i] > sb[i]) == (p.label == 0) for i, p in enumerate(pairs)]
    return float(np.mean(won)), vals


def train_scorer(pairs, params, config):
    """Minibatch Adam on the preference loss; returns (scorer, report).

    A fresh scorer of config.scorer_hidden widths is trained jointly with
    the history encoder.  The report carries per-epoch loss and held-out
    accuracy, plus the final held-out score spread and histogram.
    """
    if not pairs:
        raise ValueError("train_scorer: no training pairs")
    m = pairs[0].future_a.shape[0]
    scorer = init_scorer(params.feature_dim, m=m,
                         hidden=tuple(config.scorer_hidden), seed=config.seed)
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(pairs))
    n_hold = int(round(config.holdout_fraction * len(pairs)))
    hold = [pairs[i] for i in order[:n_hold]]
    train = [pairs[i] for i in order[n_hold:]]
    if not train:
        raise ValueError("train_scorer: holdout fraction leaves no training pairs")

    trainable = {**scorer.weights, **params.weights}
    opt = ad.Adam(trainable, lr=config.score_lr)

    report = {"epochs": [], "train_pairs": len(train), "holdout_pairs": len(hold)}
    for epoch in range(config.score_epochs):
        perm = rng.permutation(len(train))
        total = 0.0
        for lo in range(0, len(train), config.score_batch):
            batch = [train[i] for i in perm[lo:lo + config.score_batch]]
            ad.zero_grad(trainable.values())
            loss = scorer_loss(batch, scorer, params, config)
            ad.backward(loss)
            opt.step()
            total += float(loss.value[0])
        acc, _ = _holdout_accuracy(hold, scorer, params)
        report["epochs"].append({"epoch": epoch, "train_loss": total,
                                 "holdout_accuracy": acc})
    acc, hold_scores = _holdout_accuracy(hold, scorer, params)
    report["final_holdout_accuracy"] = acc
    report["holdout_score_std"] = float(hold_scores.std()) if hold_scores.size else float("nan")
    counts, edges = np.histogram(hold_scores, bins=10, range=(0.0, 1.0))
    report["score_histogram"] = {"edges": edges.tolist(), "counts": counts.tolist()}
    return scorer, report


def score_corpus(corpus, scorer, params):
    """Score every trajectory's own future; returns list of (id, score).

    One :func:`encoder.encode_many` call and one :func:`score_many` call
    score the whole corpus.  Both stack per-trajectory operands on a leading
    axis instead of forming a 2-D batch, so each score is bit-identical to
    scoring that trajectory alone and score tables stay byte-identical for
    a given checkpoint.
    """
    trajs = corpus.trajectories
    feats = enc_mod.encode_many(np.stack([t.history for t in trajs]),
                                [t.neighbors for t in trajs], params)
    rel = np.stack([t.future - t.history[-1] for t in trajs])
    return [(t.id, float(s))
            for t, s in zip(trajs, score_many(feats, rel, scorer))]
