"""Tests for metrics, rank correlation, sweeps, and report files."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from trajdiff import data, diffusion, encoder, evaluate, svg


# ---------------------------------------------------------------------------
# displacement metrics

def test_min_ade_fde_exact_match_is_zero():
    gt = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    ade, fde = evaluate.min_ade_fde([gt.copy()], gt)
    assert ade == 0.0 and fde == 0.0


def test_min_ade_fde_hand_case():
    # ground truth pinned at the origin; one sample sits at distance 1,
    # the other at distance 0.5 for every step
    gt = np.zeros((4, 2))
    a = np.tile([1.0, 0.0], (4, 1))
    b = np.tile([0.0, 0.5], (4, 1))
    ade, fde = evaluate.min_ade_fde([a, b], gt)
    assert ade == 0.5 and fde == 0.5


def test_min_ade_fde_minimizes_independently():
    # sample a wins on ADE, sample b wins on FDE
    gt = np.zeros((2, 2))
    a = np.array([[0.0, 0.0], [1.0, 0.0]])     # ADE 0.5, FDE 1
    b = np.array([[2.0, 0.0], [0.25, 0.0]])    # ADE 1.125, FDE 0.25
    ade, fde = evaluate.min_ade_fde([a, b], gt)
    assert ade == 0.5 and fde == 0.25


def test_min_ade_fde_monotone_and_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gt = rng.standard_normal((5, 2))
        samples = [rng.standard_normal((5, 2)) for _ in range(4)]
        ade4, fde4 = evaluate.min_ade_fde(samples, gt)
        ade5, fde5 = evaluate.min_ade_fde(samples + [rng.standard_normal((5, 2))], gt)
        assert ade5 <= ade4 and fde5 <= fde4
        perm = [samples[i] for i in rng.permutation(4)]
        assert evaluate.min_ade_fde(perm, gt) == (ade4, fde4)


def test_min_ade_fde_rejects_empty():
    with pytest.raises(ValueError):
        evaluate.min_ade_fde([], np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# rank correlation

def brute_force_spearman(x, y):
    # quadratic-time average ranks, then Pearson on the ranks
    def ranks(v):
        out = []
        sv = sorted(v)
        for item in v:
            idx = [k for k, s in enumerate(sv) if s == item]
            out.append(sum(idx) / len(idx) + 1.0)
        return np.array(out)

    rx, ry = ranks(list(x)), ranks(list(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def test_spearman_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 30))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if trial % 2 == 0:
            # force ties in both vectors
            x = np.round(x, 1)
            y = np.round(y, 1)
        assert abs(evaluate.spearman(x, y) - brute_force_spearman(x, y)) < 1e-12


def test_spearman_extremes():
    x = np.arange(10.0)
    assert evaluate.spearman(x, 3.0 * x + 1.0) == 1.0
    assert evaluate.spearman(x, -x) == -1.0
    assert evaluate.spearman(x, np.exp(x)) == 1.0
    assert evaluate.spearman(x, np.zeros(10)) == 0.0


def test_spearman_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate.spearman(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError):
        evaluate.spearman(np.array([1.0]), np.array([2.0]))


# ---------------------------------------------------------------------------
# sampling-based evaluation with a tiny untrained model

@pytest.fixture(scope="module")
def tiny_bundle():
    corpus = data.generate_synthetic("t-intersection", 30, 1)
    enc = encoder.init_encoder(d_e=8, d_n=4, n=8, seed=0)
    sched = diffusion.make_schedule(T=3, beta_start=0.01, beta_end=0.2)
    den = diffusion.init_denoiser(enc.feature_dim, m=12, width=16, heads=4,
                                  depth=1, max_t=3, seed=0)
    den.scale = 1.5
    return corpus, enc, sched, den


def test_evaluate_trajectories_report(tiny_bundle):
    corpus, enc, sched, den = tiny_bundle
    trajs = corpus.trajectories[:3]
    rep = evaluate.evaluate_trajectories(trajs, enc, sched, den, 2, 2, seed=5)
    assert rep.n_c == 2 and rep.n_s == 2
    assert len(rep.per_trajectory) == 3
    assert rep.min_ade >= 0.0 and rep.min_fde >= 0.0
    assert rep.runtime_seconds > 0.0
    again = evaluate.evaluate_trajectories(trajs, enc, sched, den, 2, 2, seed=5)
    assert again.per_trajectory == rep.per_trajectory
    other = evaluate.evaluate_trajectories(trajs, enc, sched, den, 2, 2, seed=6)
    assert other.per_trajectory != rep.per_trajectory


def test_constant_velocity_report_exact_on_linear_motion():
    hist = np.stack([np.array([0.4 * k, 0.0]) for k in range(8)])
    fut = np.stack([np.array([2.8 + 0.4 * (j + 1), 0.0]) for j in range(12)])
    t = data.Trajectory(id=1, history=hist, future=fut,
                        neighbors=np.zeros((0, 8, 2)), dt=0.4)
    rep = evaluate.constant_velocity_report([t], 0.4)
    assert rep.min_ade < 1e-12 and rep.min_fde < 1e-12


def test_ablation_sweep_rows(tiny_bundle):
    corpus, enc, sched, den = tiny_bundle
    trajs = corpus.trajectories[:2]
    reports = evaluate.ablation_sweep(trajs, enc, sched, den,
                                      pairs=((2, 2), (1, 1)), seed=3)
    assert [(r.n_c, r.n_s) for r in reports] == [(2, 2), (1, 1)]
    again = evaluate.ablation_sweep(trajs, enc, sched, den,
                                    pairs=((2, 2), (1, 1)), seed=3)
    assert [r.min_ade for r in again] == [r.min_ade for r in reports]


def test_adherence_curve_untrained_is_flagged(tiny_bundle):
    # an untrained denoiser ignores the conditioning channel, so the
    # curve is sampling noise and the report flags non-adherence
    corpus, enc, sched, den = tiny_bundle
    hists = [t.history for t in corpus.trajectories[:2]]
    nbrs = [t.neighbors for t in corpus.trajectories[:2]]
    rep = evaluate.adherence_curve(hists, nbrs, enc, sched, den, "slow-down",
                                   grid_size=10, n_s=4, seed=2)
    assert rep.grid.shape == (10,) and rep.mean_feature.shape == (10,)
    assert -1.0 <= rep.rho <= 1.0
    assert 0.0 <= rep.monotone_fraction <= 1.0
    assert not rep.adheres
    again = evaluate.adherence_curve(hists, nbrs, enc, sched, den, "slow-down",
                                     grid_size=10, n_s=4, seed=2)
    assert np.array_equal(again.mean_feature, rep.mean_feature)


def test_adherence_curve_rejects_bad_args(tiny_bundle):
    corpus, enc, sched, den = tiny_bundle
    hists = [corpus.trajectories[0].history]
    nbrs = [corpus.trajectories[0].neighbors]
    with pytest.raises(ValueError, match="kind"):
        evaluate.adherence_curve(hists, nbrs, enc, sched, den, "speed-up")
    with pytest.raises(ValueError, match="axis"):
        evaluate.adherence_curve(hists, nbrs, enc, sched, den, "slow-down",
                                 axis=1)
    with pytest.raises(ValueError, match="grid_size"):
        evaluate.adherence_curve(hists, nbrs, enc, sched, den, "slow-down",
                                 grid_size=1)


def test_multi_constraint_grid_shape(tiny_bundle):
    corpus, enc, sched, _ = tiny_bundle
    den2 = diffusion.init_denoiser(enc.feature_dim, m=12, n_scores=2,
                                   width=16, heads=4, depth=1, max_t=3, seed=0)
    den2.scale = 1.5
    hists = [corpus.trajectories[0].history]
    nbrs = [corpus.trajectories[0].neighbors]
    rep = evaluate.multi_constraint_grid(hists, nbrs, enc, sched, den2,
                                         n=3, n_s=2, seed=1)
    assert len(rep.cells) == 9
    assert rep.rho.shape == (2, 2) and rep.effect.shape == (2, 2)
    assert np.all(np.abs(rep.rho) <= 1.0)
    cs = sorted({c1 for (c1, _), _, _ in rep.cells})
    assert np.allclose(cs, (np.arange(3) + 0.5) / 3, atol=1e-15)


def test_multi_constraint_grid_needs_two_scores(tiny_bundle):
    corpus, enc, sched, den = tiny_bundle
    hists = [corpus.trajectories[0].history]
    nbrs = [corpus.trajectories[0].neighbors]
    with pytest.raises(ValueError, match="scores"):
        evaluate.multi_constraint_grid(hists, nbrs, enc, sched, den, n=2, n_s=2)


# ---------------------------------------------------------------------------
# report files

def test_metric_csv_roundtrip(tmp_path):
    rep = evaluate.MetricReport(n_c=2, n_s=3, min_ade=1.25, min_fde=2.5,
                                per_trajectory=[(7, 1.25, 2.5)],
                                runtime_seconds=0.1)
    path = tmp_path / "metrics.csv"
    evaluate.write_metric_csv(path, [rep], meta={"corpus": "synthetic"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# corpus=synthetic"
    assert lines[1] == "n_c,n_s,min_ade,min_fde,runtime_seconds"
    fields = lines[2].split(",")
    assert fields[:2] == ["2", "3"]
    assert float(fields[2]) == 1.25 and float(fields[3]) == 2.5


def test_adherence_csv(tmp_path):
    rep = evaluate.AdherenceReport(
        kind="slow-down", axis=0, grid=np.array([0.25, 0.75]),
        mean_feature=np.array([1.5, 0.5]), rho=-1.0, monotone_fraction=1.0,
        adheres=True)
    path = tmp_path / "adherence.csv"
    evaluate.write_adherence_csv(path, rep)
    text = path.read_text()
    assert "# rho=-1.000000" in text
    assert "# adheres=True" in text
    assert text.splitlines()[-1] == "0.750000,0.500000"


def test_grid_csv(tmp_path):
    rep = evaluate.GridReport(
        grid=np.array([0.25, 0.75]),
        cells=[((0.25, 0.25), 0.1, 1.0), ((0.25, 0.75), 0.2, 0.9),
               ((0.75, 0.25), -0.1, 1.1), ((0.75, 0.75), 0.0, 1.0)],
        rho=np.array([[0.5, -0.5], [0.25, -0.25]]),
        effect=np.array([[1.0, 0.5], [0.25, 0.75]]))
    path = tmp_path / "grid.csv"
    evaluate.write_grid_csv(path, rep)
    lines = path.read_text().splitlines()
    assert "# rho_axis0_turn=0.500000" in lines
    assert "# effect_axis1_speed=0.750000" in lines
    assert lines[-1] == "0.750000,0.750000,0.000000,1.000000"
    assert sum(1 for ln in lines if not ln.startswith("#")) == 5


# ---------------------------------------------------------------------------
# vector output

def test_line_plot_writes_valid_svg(tmp_path):
    path = tmp_path / "curve.svg"
    x = np.linspace(0.0, 1.0, 20)
    svg.line_plot(path, x, [np.sin(3 * x), np.cos(3 * x)],
                  labels=["sin", "cos"], title="curves")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    assert body.count("<polyline") == 2
    assert "curves" in body


def test_line_plot_rejects_mismatched_series(tmp_path):
    with pytest.raises(ValueError):
        svg.line_plot(tmp_path / "bad.svg", np.arange(3.0), [np.arange(4.0)])


def test_trajectory_overlay_writes_valid_svg(tmp_path):
    rng = np.random.default_rng(0)
    hist = np.cumsum(rng.standard_normal((8, 2)) * 0.1, axis=0)
    gt = hist[-1] + np.cumsum(rng.standard_normal((12, 2)) * 0.1, axis=0)
    samples = [gt + rng.standard_normal((12, 2)) * 0.05 for _ in range(3)]
    path = tmp_path / "overlay.svg"
    svg.trajectory_overlay(path, hist, gt, samples,
                           sample_values=[0.1, 0.5, 0.9], title="prediction")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text()
    # three samples, one history, one ground truth
    assert body.count("<polyline") == 5
