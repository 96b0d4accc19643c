import numpy as np
import pytest

import tracer as tracer_mod
from trajdiff import (autodiff, checkpoint, cli, data, diffusion, encoder,
                      evaluate, scoring)

MODS = {"autodiff": autodiff, "checkpoint": checkpoint, "cli": cli,
        "data": data, "diffusion": diffusion, "encoder": encoder,
        "evaluate": evaluate, "scoring": scoring}


def test_self_time_subtracts_merged_clipped_children():
    # span 0 [0, 10] has children [1, 3] and [2, 4], which overlap, and
    # [8, 12], which runs past its parent; span 4 is a grandchild.
    starts = [0.0, 1.0, 2.0, 8.0, 1.5]
    ends = [10.0, 3.0, 4.0, 12.0, 2.5]
    parents = [-1, 0, 0, 0, 1]
    own = tracer_mod.self_times(starts, ends, parents)
    # children of 0 cover [1, 4] and [8, 10]: 5 s
    assert own.tolist() == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])


def test_union_length_merges_overlaps():
    assert tracer_mod.union_length([0, 1, 5], [2, 3, 6]) == pytest.approx(4.0)
    assert tracer_mod.union_length([0, 1], [10, 2]) == pytest.approx(10.0)
    assert tracer_mod.union_length([], []) == 0.0


def test_tracer_counts_nested_calls_and_restores_attributes():
    originals = (autodiff.matmul, encoder.encode_batch, autodiff.Adam.step)
    enc = encoder.init_encoder(seed=0)
    history = np.cumsum(np.full((8, 2), 0.4), axis=0)
    plain = encoder.encode(history, [], enc)
    tr = tracer_mod.Tracer(MODS)
    with tr:
        tr.set_op(7)
        traced = encoder.encode(history, [], enc)
    assert (autodiff.matmul, encoder.encode_batch, autodiff.Adam.step) \
        == originals
    assert np.array_equal(plain, traced)
    got = tr.layer_stats()
    assert got["encoder.encode.calls"] == 1
    assert got["encoder.encode_batch.calls"] == 1
    assert got["encoder.encode_batch.rows"] == 1
    assert got["autodiff.matmul.calls"] > 0
    assert got["autodiff.ops.calls"] >= got["autodiff.matmul.calls"]
    # encode's own time excludes the encode_batch it calls
    assert got["encoder.encode.self_s"] < got["encoder.encode.busy_s"]
    assert got["encoder.encode.busy_s"] >= got["encoder.encode_batch.busy_s"]
    _, _, _, parents, ops = tr.arrays()
    assert set(ops.tolist()) == {7}
    assert parents[0] == -1 and (parents[1:] >= 0).all()


def test_denoiser_counters():
    den = diffusion.init_denoiser(feature_dim=4, width=8, heads=2, depth=1,
                                  time_dim=4, cond_dim=4, pos_dim=4, max_t=5)
    tr = tracer_mod.Tracer(MODS)
    with tr:
        diffusion.denoise_batch(np.zeros((3, 12, 2)), np.zeros((3, 5)),
                                np.ones(3, dtype=int), den)
    got = tr.layer_stats()
    assert got["diffusion.denoise_batch.rows"] == 3
    assert got["diffusion.denoise_batch.gflop"] == pytest.approx(
        tracer_mod.denoiser_gflop(3, den))
    assert tracer_mod.denoiser_gflop(6, den) == pytest.approx(
        2 * tracer_mod.denoiser_gflop(3, den))


def test_every_reported_layer_metric_has_a_unit():
    metrics = tracer_mod.layer_metrics({})
    assert list(metrics) == tracer_mod.LAYER_METRICS
    assert all(v == 0.0 for v in metrics.values())
    assert set(tracer_mod.LAYER_UNITS) >= set(tracer_mod.LAYER_METRICS)
