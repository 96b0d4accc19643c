"""Shared session fixtures: trained scorers and diffusion models.

The heavier end-to-end tests all work against one mid-size synthetic corpus
with two preference scorers (slow-down, turn-right), per-trajectory score
tables, and three trained conditional denoisers (one per single constraint
plus a two-score model).  Training is deterministic, so every fixture is
reproducible bit for bit; building the full set takes about two minutes and
only happens when a test actually asks for a trained model.
"""
import time

import numpy as np
import pytest

from trajdiff import data, diffusion, encoder, scoring
from trajdiff.config import Config

CORPUS_SCENARIO = "t-intersection"
CORPUS_SIZE = 3000
CORPUS_SEED = 17
PAIR_FRACTION = 0.08
PAIR_SEEDS = {"slow-down": 23, "turn-right": 29}
SCORE_EPOCHS = 45
DIFFUSION_EPOCHS = 15


@pytest.fixture(scope="session")
def world():
    corpus = data.generate_synthetic(CORPUS_SCENARIO, CORPUS_SIZE, CORPUS_SEED)
    train, test = data.split_corpus(corpus)
    return {"corpus": corpus, "train": train, "test": test}


def _trained_scorer(world, kind):
    pairs = data.make_pairs(world["train"], data.ConstraintAnnotator(kind),
                            PAIR_FRACTION, seed=PAIR_SEEDS[kind])
    enc = encoder.init_encoder(seed=0)
    cfg = Config(seed=0, score_epochs=SCORE_EPOCHS)
    t0 = time.perf_counter()
    scorer, report = scoring.train_scorer(pairs, enc, cfg)
    report["train_seconds"] = time.perf_counter() - t0
    report["n_pairs"] = len(pairs)
    return {"kind": kind, "pairs": pairs, "encoder": enc,
            "scorer": scorer, "report": report}


@pytest.fixture(scope="session")
def slow_scorer(world):
    return _trained_scorer(world, "slow-down")


@pytest.fixture(scope="session")
def turn_scorer(world):
    return _trained_scorer(world, "turn-right")


@pytest.fixture(scope="session")
def slow_scores(world, slow_scorer):
    return dict(scoring.score_corpus(world["corpus"], slow_scorer["scorer"],
                                     slow_scorer["encoder"]))


@pytest.fixture(scope="session")
def turn_scores(world, turn_scorer):
    return dict(scoring.score_corpus(world["corpus"], turn_scorer["scorer"],
                                     turn_scorer["encoder"]))


@pytest.fixture(scope="session")
def ddpm_schedule():
    return diffusion.make_schedule()


def _trained_model(world, enc, scores, schedule):
    cfg = Config(diffusion_epochs=DIFFUSION_EPOCHS, seed=0)
    den, report = diffusion.train_diffusion(world["corpus"], scores, enc,
                                            schedule, cfg)
    return {"encoder": enc, "denoiser": den, "schedule": schedule,
            "report": report}


@pytest.fixture(scope="session")
def slow_model(world, slow_scorer, slow_scores, ddpm_schedule):
    return _trained_model(world, slow_scorer["encoder"], slow_scores,
                          ddpm_schedule)


@pytest.fixture(scope="session")
def turn_model(world, turn_scorer, turn_scores, ddpm_schedule):
    return _trained_model(world, turn_scorer["encoder"], turn_scores,
                          ddpm_schedule)


@pytest.fixture(scope="session")
def multi_model(world, turn_scorer, turn_scores, slow_scores, ddpm_schedule):
    """Two-score model: channel 0 conditions turning, channel 1 speed."""
    merged = {k: np.array([turn_scores[k], slow_scores[k]])
              for k in turn_scores}
    out = _trained_model(world, turn_scorer["encoder"], merged, ddpm_schedule)
    out["constraints"] = ["turn-right", "slow-down"]
    return out


@pytest.fixture(scope="session")
def eval_subsets(world):
    """Fixed held-out subsets used by the sampling-heavy evaluations.

    Both index sets come from one generator in a fixed draw order so the
    subsets stay stable (the second draw depends on the first having
    consumed its part of the stream).
    """
    trajs = sorted(world["test"].trajectories, key=lambda t: t.id)
    rng = np.random.default_rng(0)
    keep8 = sorted(rng.choice(len(trajs), size=8, replace=False))
    keep15 = sorted(rng.choice(len(trajs), size=15, replace=False))
    return {"eight": [trajs[i] for i in keep8],
            "fifteen": [trajs[i] for i in keep15]}
