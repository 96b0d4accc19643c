"""Preference scorer: BTL identities, entropy penalty, and training behavior."""

import math

import numpy as np
import pytest

import trajdiff.autodiff as ad
from trajdiff import data, encoder, scoring
from trajdiff.config import Config

NLL_ONLY = Config(lam=0.0)


@pytest.fixture(scope="module")
def small_setup():
    corpus = data.generate_synthetic("t-intersection", 1000, 3)
    ann = data.ConstraintAnnotator("slow-down")
    pairs = data.make_pairs(corpus, ann, 0.06, seed=5)
    params = encoder.init_encoder(seed=0)
    return corpus, pairs, params


def _random_feature(rng, dim=96):
    return rng.uniform(-1, 1, size=dim)


def _random_future(rng, m=12):
    return np.cumsum(rng.uniform(-0.5, 0.5, size=(m, 2)), axis=0)


# ---------------------------------------------------------------------------
# score function

def test_zero_init_scores_half():
    rng = np.random.default_rng(0)
    scorer = scoring.init_scorer(96, zero=True)
    for _ in range(5):
        s = scoring.score(_random_feature(rng), _random_future(rng), scorer)
        assert s == 0.5


def test_score_open_interval_and_deterministic():
    rng = np.random.default_rng(1)
    scorer = scoring.init_scorer(96, seed=4)
    for _ in range(20):
        f, y = _random_feature(rng), _random_future(rng)
        s1 = scoring.score(f, y, scorer)
        s2 = scoring.score(f, y, scorer)
        assert s1 == s2
        assert 0.0 < s1 < 1.0


def test_score_dim_mismatch():
    rng = np.random.default_rng(2)
    scorer = scoring.init_scorer(96)
    with pytest.raises(ad.ShapeError):
        scoring.score(np.zeros(40), _random_future(rng), scorer)
    with pytest.raises(ad.ShapeError):
        scoring.score(np.zeros(96), np.zeros((5, 2)), scorer)


# ---------------------------------------------------------------------------
# pairwise probability: the logistic of the score margin, as scorer_loss
# computes it with ad.sigmoid

def _btl(s_a, s_b):
    return float(ad.sigmoid_values(np.array([s_a - s_b]))[0])


def test_btl_equal_scores_half():
    for s in (0.0, 0.3, 1.0, -2.5):
        assert _btl(s, s) == 0.5


def test_btl_hand_value():
    # 1/(1 + e^-1)
    assert abs(_btl(1.0, 0.0) - 0.7310585786300049) < 1e-12


def test_btl_dominant_winner():
    assert _btl(20.0, 0.0) > 1 - 1e-8
    assert -math.log(_btl(20.0, 0.0)) < 1e-8


# ---------------------------------------------------------------------------
# likelihood loss

def test_mle_uniform_model_is_b_ln2(small_setup):
    _, pairs, params = small_setup
    batch = pairs[:16]
    scorer = scoring.init_scorer(params.feature_dim, zero=True)
    loss = scoring.scorer_loss(batch, scorer, params, NLL_ONLY)
    assert abs(float(loss.value[0]) - len(batch) * math.log(2)) < 1e-9


def test_mle_empty_batch(small_setup):
    _, _, params = small_setup
    scorer = scoring.init_scorer(params.feature_dim)
    with pytest.raises(ValueError, match="empty"):
        scoring.scorer_loss([], scorer, params, NLL_ONLY)


def test_mle_flipped_labels_increase_loss(small_setup):
    _, pairs, params0 = small_setup
    params = encoder.init_encoder(seed=0)
    cfg = Config(lam=0.0, score_epochs=8, seed=0)
    scorer, _ = scoring.train_scorer(pairs, params, cfg)
    normal = float(scoring.scorer_loss(pairs, scorer, params, cfg).value[0])
    flipped_pairs = [data.PairwiseSample(p.history, p.future_a, p.future_b,
                                         1 - p.label, p.neighbors) for p in pairs]
    flipped = float(scoring.scorer_loss(flipped_pairs, scorer, params,
                                        cfg).value[0])
    assert flipped > normal


# ---------------------------------------------------------------------------
# entropy penalty

def test_entropy_spread_beats_constant():
    spread = np.linspace(0.05, 0.95, 32)
    constant = np.full(32, 0.5)
    for normalize in (True, False):
        h_spread = float(scoring.entropy_penalty(spread, normalize=normalize).value[0])
        h_const = float(scoring.entropy_penalty(constant, normalize=normalize).value[0])
        assert h_spread > h_const


def test_entropy_bounded_by_log_grid():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = rng.uniform(0.01, 0.99, size=rng.integers(2, 64))
        h = float(scoring.entropy_penalty(scores, grid_size=20).value[0])
        assert h <= math.log(20) + 1e-12


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(6)
    scores = rng.uniform(0.05, 0.95, size=40)
    h1 = float(scoring.entropy_penalty(scores).value[0])
    h2 = float(scoring.entropy_penalty(scores[::-1].copy()).value[0])
    h3 = float(scoring.entropy_penalty(rng.permutation(scores)).value[0])
    assert abs(h1 - h2) < 1e-12 and abs(h1 - h3) < 1e-12


def test_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for normalize in (True, False):
        vals = rng.uniform(0.1, 0.9, size=10)
        node = ad.parameter(vals.copy())
        out = scoring.entropy_penalty(node, grid_size=20, bandwidth=0.05,
                                      normalize=normalize)
        ad.zero_grad([node])
        ad.backward(out)
        got = node.grad.copy()
        eps = 1e-6
        for i in range(vals.size):
            up, dn = vals.copy(), vals.copy()
            up[i] += eps
            dn[i] -= eps
            hu = float(scoring.entropy_penalty(up, 20, 0.05, normalize).value[0])
            hd = float(scoring.entropy_penalty(dn, 20, 0.05, normalize).value[0])
            fd = (hu - hd) / (2 * eps)
            denom = max(abs(fd), abs(got[i]), 1e-8)
            assert abs(got[i] - fd) / denom < 1e-4


def test_entropy_rejects_bad_args():
    with pytest.raises(ValueError, match="grid"):
        scoring.entropy_penalty([0.2, 0.8], grid_size=1)
    with pytest.raises(ValueError, match="2 scores"):
        scoring.entropy_penalty([0.5])


# ---------------------------------------------------------------------------
# training

def test_train_zero_epochs_keeps_init(small_setup):
    _, pairs, _ = small_setup
    params = encoder.init_encoder(seed=0)
    cfg = Config(score_epochs=0, seed=0)
    scorer, report = scoring.train_scorer(pairs, params, cfg)
    fresh = scoring.init_scorer(params.feature_dim, m=12, seed=0)
    for k in scorer.weights:
        assert np.array_equal(scorer.weights[k].value, fresh.weights[k].value)
    assert report["epochs"] == []


def test_train_reaches_holdout_accuracy(small_setup):
    _, pairs, _ = small_setup
    params = encoder.init_encoder(seed=0)
    cfg = Config(score_epochs=25, seed=0)
    assert len(pairs) <= 60
    scorer, report = scoring.train_scorer(pairs, params, cfg)
    assert report["final_holdout_accuracy"] >= 0.9
    assert report["holdout_pairs"] >= 5


def test_train_entropy_broadens_scores(small_setup):
    # short run from a shared init: the entropy bonus must widen the
    # held-out score distribution relative to the plain likelihood loss
    _, pairs, _ = small_setup
    stds = {}
    for lam in (0.0, 0.1):
        params = encoder.init_encoder(seed=0)
        cfg = Config(lam=lam, score_epochs=3, seed=0,
                     normalize_entropy=False)
        _, report = scoring.train_scorer(pairs, params, cfg)
        stds[lam] = report["holdout_score_std"]
    assert stds[0.1] > stds[0.0]


def test_train_flipped_labels_cannot_score_well(small_setup):
    _, pairs, _ = small_setup
    flipped = [data.PairwiseSample(p.history, p.future_a, p.future_b,
                                   1 - p.label, p.neighbors) for p in pairs]
    params = encoder.init_encoder(seed=0)
    cfg = Config(lam=0.0, score_epochs=10, seed=0)
    scorer_flip, _ = scoring.train_scorer(flipped, params, cfg)
    acc_on_true, _ = scoring._holdout_accuracy(pairs, scorer_flip, params)
    params2 = encoder.init_encoder(seed=0)
    scorer_true, _ = scoring.train_scorer(pairs, params2, cfg)
    acc_true, _ = scoring._holdout_accuracy(pairs, scorer_true, params2)
    assert acc_on_true < 0.5 < acc_true


def test_config_validation():
    with pytest.raises(ValueError, match="lam"):
        Config(lam=-0.1)
    with pytest.raises(ValueError, match="entropy_grid"):
        Config(entropy_grid=1)
    with pytest.raises(ValueError, match="bandwidth"):
        Config(bandwidth=0.0)
    with pytest.raises(ValueError, match="holdout"):
        Config(holdout_fraction=1.0)


def test_score_corpus_rows(small_setup):
    corpus, _, params = small_setup
    scorer = scoring.init_scorer(params.feature_dim, seed=2)
    sub = data.Corpus(corpus.trajectories[:10], corpus.meta)
    rows = scoring.score_corpus(sub, scorer, params)
    assert [r[0] for r in rows] == [t.id for t in sub.trajectories]
    assert all(0 < r[1] < 1 for r in rows)
    rows2 = scoring.score_corpus(sub, scorer, params)
    assert rows == rows2
