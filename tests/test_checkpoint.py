"""Tests for the binary model container."""

import struct

import numpy as np
import pytest

from trajdiff import checkpoint, config, data, diffusion, encoder, scoring


def scorer_bundle(seed=0):
    enc = encoder.init_encoder(d_e=12, d_n=6, n=8, dt=0.4, seed=seed)
    scorer = scoring.init_scorer(enc.feature_dim, m=12, hidden=(16, 8),
                                 seed=seed)
    # perturb so the payload is not all init values
    rng = np.random.default_rng(seed + 1)
    for w in scorer.weights.values():
        w.value += 0.01 * rng.standard_normal(w.value.shape)
    return checkpoint.Bundle(encoder=enc, scorer=scorer, denoiser=None,
                             schedule=None, constraints=["slow-down"],
                             config=config.Config().to_dict(), m=12)


def full_bundle():
    b = scorer_bundle()
    sched = diffusion.make_schedule(T=20, beta_start=2e-3, beta_end=0.1)
    den = diffusion.init_denoiser(b.encoder.feature_dim, m=12, width=32,
                                  heads=4, depth=1, max_t=20, seed=3)
    den.scale = 2.4693871502382016
    b.denoiser = den
    b.schedule = sched
    return b


def assert_same_weights(a, b):
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name].value, b[name].value), name


def test_scorer_checkpoint_roundtrip(tmp_path):
    bundle = scorer_bundle()
    path = tmp_path / "scorer.ckpt"
    checkpoint.save_bundle(path, bundle)
    loaded = checkpoint.load_bundle(path)
    assert loaded.encoder.n == 8 and loaded.m == 12 and loaded.dt == 0.4
    assert loaded.encoder.d_e == 12 and loaded.encoder.d_n == 6
    assert loaded.scorer.hidden == (16, 8)
    assert loaded.denoiser is None and loaded.schedule is None
    assert loaded.constraints == ["slow-down"]
    assert_same_weights(bundle.encoder.weights, loaded.encoder.weights)
    assert_same_weights(bundle.scorer.weights, loaded.scorer.weights)


def test_roundtrip_byte_identical(tmp_path):
    bundle = full_bundle()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_bundle(p1, bundle)
    checkpoint.save_bundle(p2, checkpoint.load_bundle(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_full_bundle_restores_behavior(tmp_path):
    bundle = full_bundle()
    path = tmp_path / "model.ckpt"
    checkpoint.save_bundle(path, bundle)
    loaded = checkpoint.load_bundle(path)
    assert loaded.denoiser.scale == 2.4693871502382016
    assert loaded.schedule.T == 20
    assert np.array_equal(loaded.schedule.beta, bundle.schedule.beta)
    assert np.array_equal(loaded.denoiser.time_table,
                          bundle.denoiser.time_table)
    rng = np.random.default_rng(0)
    hist = np.cumsum(rng.standard_normal((8, 2)) * 0.1, axis=0)
    fut = rng.standard_normal((12, 2))
    f_a = encoder.encode(hist, np.zeros((0, 8, 2)), bundle.encoder)
    f_b = encoder.encode(hist, np.zeros((0, 8, 2)), loaded.encoder)
    assert np.array_equal(f_a, f_b)
    assert scoring.score(f_a, fut, bundle.scorer) == \
        scoring.score(f_b, fut, loaded.scorer)
    s_a = diffusion.sample_batch(f_a[None], [0.5], 1, hist[-1:],
                                 bundle.schedule, bundle.denoiser,
                                 [np.random.default_rng(4)])
    s_b = diffusion.sample_batch(f_a[None], [0.5], 1, hist[-1:],
                                 loaded.schedule, loaded.denoiser,
                                 [np.random.default_rng(4)])
    assert np.array_equal(s_a, s_b)


def test_config_snapshot_survives(tmp_path):
    bundle = full_bundle()
    path = tmp_path / "model.ckpt"
    checkpoint.save_bundle(path, bundle)
    loaded = checkpoint.load_bundle(path)
    restored = config.from_dict(loaded.config)
    assert restored == config.Config()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(data.DataError, match="magic"):
        checkpoint.load_bundle(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.ckpt"
    checkpoint.save_bundle(path, scorer_bundle())
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(blob))
    with pytest.raises(data.DataError, match="version"):
        checkpoint.load_bundle(path)


def test_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "cut.ckpt"
    checkpoint.save_bundle(path, scorer_bundle())
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(data.DataError, match="truncated"):
        checkpoint.load_bundle(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(data.DataError, match="trailing"):
        checkpoint.load_bundle(path)


def test_save_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_bundle(p1, scorer_bundle())
    checkpoint.save_bundle(p2, scorer_bundle())
    assert p1.read_bytes() == p2.read_bytes()
