"""Release gate: one test per acceptance criterion.

Each test prints a single PASS/FAIL line with the measured quantities
(visible with ``pytest -s``).  Criteria 4-9 share the session-scoped
trained models from conftest, so the first of them to run pays the
training cost once; the whole file finishes in roughly twenty minutes
on a laptop CPU.
"""
import json
import math
import time
import zlib

import numpy as np
import pytest

from trajdiff import data, diffusion, encoder, evaluate, scoring
from trajdiff.cli import main as cli_main
from trajdiff.config import Config

import test_autodiff as autodiff_cases
import test_checkpoint as checkpoint_cases

pytestmark = pytest.mark.slow


def _verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1: every differentiable op agrees with central finite differences

def test_criterion_01_gradient_checks():
    ops = sorted(autodiff_cases.OP_CASES)
    t0 = time.perf_counter()
    bad = []
    for opname in ops:
        rng = np.random.default_rng(zlib.crc32(opname.encode()))
        for k in range(100):
            build, arrays = autodiff_cases.OP_CASES[opname](rng)
            try:
                autodiff_cases.check_op(build, arrays)
            except AssertionError:
                bad.append((opname, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _verdict(1, ok, f"{len(ops)} ops x 100 shape/seed combos at rel err "
                    f"< 1e-4, {len(bad)} failures, {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 2: noise schedule shape and forward-marginal statistics

def test_criterion_02_schedule_and_noising():
    sched = diffusion.make_schedule()
    cosine = diffusion.make_schedule(kind="cosine")
    mono = (bool(np.all(np.diff(sched.alpha_bar) < 0))
            and bool(np.all(np.diff(cosine.alpha_bar) < 0)))

    n = 100_000
    rng = np.random.default_rng(11)
    base = np.array([1.0, -0.5])
    tiled = np.tile(base, (n, 1))
    worst = 0.0
    for t in (1, 60, 100):
        ab = float(sched.alpha_bar[t - 1])
        y = diffusion.noise_to_t(tiled, t, sched, rng.standard_normal((n, 2)))
        mean_tol = 3.0 * math.sqrt((1.0 - ab) / n)
        var_tol = 3.0 * (1.0 - ab) * math.sqrt(2.0 / (n - 1))
        mean_rel = np.abs(y.mean(axis=0) - math.sqrt(ab) * base).max() / mean_tol
        var_rel = np.abs(y.var(axis=0, ddof=1) - (1.0 - ab)).max() / var_tol
        worst = max(worst, mean_rel, var_rel)
    ok = mono and worst <= 1.0
    _verdict(2, ok, f"alpha_bar strictly decreasing (linear and cosine); "
                    f"moments at t in (1,60,100) within 3 sigma of closed "
                    f"form at 1e5 draws (worst ratio {worst:.2f})")


# ---------------------------------------------------------------------------
# 3: pairwise-preference probability identities

def test_criterion_03_preference_identities(world):
    rng = np.random.default_rng(5)
    dev = 0.0
    for _ in range(200):
        a, b = rng.uniform(0.0, 1.0, size=2)
        dev = max(dev, abs(scoring.btl_prob(a, b) + scoring.btl_prob(b, a) - 1.0))
    complement_ok = dev <= np.finfo(float).eps

    halves_ok = all(scoring.btl_prob(x, x) == 0.5
                    for x in (0.0, 0.25, 0.5, 1.0))

    pairs = data.make_pairs(world["train"], data.ConstraintAnnotator("slow-down"),
                            0.02, seed=7)
    enc = encoder.init_encoder(seed=0)
    zero = scoring.init_scorer(enc.feature_dim, m=12, zero=True)
    loss = float(scoring.scorer_loss(pairs, zero, enc, Config(lam=0.0))
                 .value.reshape(-1)[0])
    want = len(pairs) * math.log(2.0)
    uniform_ok = abs(loss - want) <= 1e-9

    ok = complement_ok and halves_ok and uniform_ok
    _verdict(3, ok, f"complement deviation {dev:.1e} (<= eps); equal scores "
                    f"give exactly 0.5; uniform loss {loss:.9f} vs "
                    f"{len(pairs)}*ln2 within {abs(loss - want):.1e}")


# ---------------------------------------------------------------------------
# 4: the entropy bonus widens the held-out score distribution

def test_criterion_04_entropy_regularization(slow_scorer):
    pairs = slow_scorer["pairs"]
    stds = {}
    for lam in (0.0, 0.1):
        enc = encoder.init_encoder(seed=0)
        cfg = Config(lam=lam, score_epochs=3, seed=0,
                     normalize_entropy=False)
        _, rep = scoring.train_scorer(pairs, enc, cfg)
        stds[lam] = rep["holdout_score_std"]
    spread_ok = stds[0.1] > stds[0.0]

    spread = np.linspace(0.05, 0.95, 40)
    constant = np.full(40, 0.5)
    h_spread = float(scoring.entropy_penalty(spread).value.reshape(-1)[0])
    h_const = float(scoring.entropy_penalty(constant).value.reshape(-1)[0])
    entropy_ok = h_spread > h_const

    ok = spread_ok and entropy_ok
    _verdict(4, ok, f"held-out score std {stds[0.1]:.3f} (lam=0.1) > "
                    f"{stds[0.0]:.3f} (lam=0) on identical data/seed; "
                    f"H(spread)={h_spread:.3f} > H(constant)={h_const:.3f}")


# ---------------------------------------------------------------------------
# 5: scorer accuracy from sparse pair supervision

def test_criterion_05_scorer_quality(slow_scorer, turn_scorer):
    parts = []
    ok = True
    for fx in (slow_scorer, turn_scorer):
        rep = fx["report"]
        acc = rep["final_holdout_accuracy"]
        cell = (acc >= 0.9 and rep["n_pairs"] <= 200
                and rep["train_seconds"] < 300.0)
        ok = ok and cell
        parts.append(f"{fx['kind']}: acc {acc:.3f} on {rep['holdout_pairs']} "
                     f"held-out of {rep['n_pairs']} pairs, "
                     f"{rep['train_seconds']:.0f}s")
    _verdict(5, ok, "; ".join(parts) + " (need >= 0.90, <= 200 pairs, < 300s)")


# ---------------------------------------------------------------------------
# 6: conditioning value steers the matching trajectory statistic

def test_criterion_06_conditional_adherence(eval_subsets, slow_model,
                                            turn_model):
    hists = [t.history for t in eval_subsets["eight"]]
    nbrs = [t.neighbors for t in eval_subsets["eight"]]
    parts = []
    ok = True
    for fx, kind in ((slow_model, "slow-down"), (turn_model, "turn-right")):
        t0 = time.perf_counter()
        rep = evaluate.adherence_curve(hists, nbrs, fx["encoder"],
                                       fx["schedule"], fx["denoiser"], kind,
                                       grid_size=20, n_s=10, seed=1)
        el = time.perf_counter() - t0
        cell = abs(rep.rho) >= 0.8 and rep.adheres and el < 600.0
        if kind == "slow-down":
            cell = cell and rep.rho <= -0.8
        ok = ok and cell
        parts.append(f"{kind}: rho {rep.rho:+.3f}, {el:.0f}s")
    _verdict(6, ok, "; ".join(parts) + " (need |rho| >= 0.8 in the "
                    "constraint direction, < 600s each)")


# ---------------------------------------------------------------------------
# 7: two concatenated scores steer their own axes

def test_criterion_07_multi_constraint(eval_subsets, multi_model):
    hists = [t.history for t in eval_subsets["eight"]]
    nbrs = [t.neighbors for t in eval_subsets["eight"]]
    rep = evaluate.multi_constraint_grid(hists, nbrs, multi_model["encoder"],
                                         multi_model["schedule"],
                                         multi_model["denoiser"],
                                         n=5, n_s=10, seed=2)
    rho_ok = abs(rep.rho[0, 0]) >= 0.6 and abs(rep.rho[1, 1]) >= 0.6
    effect_ok = (rep.effect[0, 0] > rep.effect[0, 1]
                 and rep.effect[1, 1] > rep.effect[1, 0])
    ok = rho_ok and effect_ok
    _verdict(7, ok, f"matched-axis rho {rep.rho[0, 0]:+.3f} (turn), "
                    f"{rep.rho[1, 1]:+.3f} (speed), need |rho| >= 0.6; "
                    f"effect matched vs cross {rep.effect[0, 0]:.2f} vs "
                    f"{rep.effect[0, 1]:.2f} and {rep.effect[1, 1]:.2f} vs "
                    f"{rep.effect[1, 0]:.2f}")


# ---------------------------------------------------------------------------
# 8 and 9 share one sampling-budget sweep over a fixed held-out subset

@pytest.fixture(scope="session")
def budget_sweep(eval_subsets, slow_model):
    sub = eval_subsets["fifteen"]
    reports = evaluate.ablation_sweep(sub, slow_model["encoder"],
                                      slow_model["schedule"],
                                      slow_model["denoiser"], seed=3)
    cv = evaluate.constant_velocity_report(sub, data.DEF_DT)
    return {(r.n_c, r.n_s): r for r in reports}, cv


def test_criterion_08_budget_ordering(budget_sweep):
    by_budget, _ = budget_sweep
    ade = {k: r.min_ade for k, r in by_budget.items()}
    others = [v for k, v in ade.items() if k != (20, 20)]
    best_ok = ade[(20, 20)] < min(others)
    pair_ok = ade[(20, 1)] > ade[(10, 10)]
    ok = best_ok and pair_ok
    listing = ", ".join(f"{k}={v:.3f}" for k, v in sorted(ade.items()))
    _verdict(8, ok, f"minADE {listing}; (20,20) best and (20,1) worse "
                    f"than (10,10)")


def test_criterion_09_beats_extrapolation(budget_sweep):
    by_budget, cv = budget_sweep
    best = by_budget[(20, 20)].min_ade
    margin = 1.0 - best / cv.min_ade
    ok = margin >= 0.20
    _verdict(9, ok, f"best-of-400 minADE {best:.3f} vs constant-velocity "
                    f"{cv.min_ade:.3f}, margin {margin * 100:.1f}% "
                    f"(need >= 20%)")


# ---------------------------------------------------------------------------
# 10: import exactness, checkpoint round-trip, reproducible subcommands

TINY_CFG = {"score_epochs": 3, "diffusion_epochs": 1, "T": 8,
            "d_e": 16, "d_n": 8, "width": 32, "depth": 1}


def _import_exact(tmp_path):
    p = tmp_path / "hand.txt"
    p.write_text("\n".join(f"{k} 1 {float(k)!r} 0.0" for k in range(20)) + "\n")
    corpus = data.import_ethucy(str(p), "hand", frame_rate=2.5)
    one = corpus.trajectories[0]
    coords_ok = (len(corpus.trajectories) == 1
                 and np.abs(one.history[:, 0] - np.arange(8)).max() < 1e-9
                 and np.abs(one.future[:, 0] - np.arange(8, 20)).max() < 1e-9
                 and np.abs(one.history[:, 1]).max() < 1e-9)

    q = tmp_path / "mixed.txt"
    lines = [f"{k} 1 {0.4 * k!r} 0.0" for k in range(30)]
    lines += [f"{k} 2 {0.4 * k!r} 50.0" for k in range(10)]
    q.write_text("\n".join(lines) + "\n")
    mixed = data.import_ethucy(str(q), "mixed", frame_rate=2.5)
    counts_ok = (len(mixed.trajectories) == 11
                 and mixed.meta["skipped_tracks"] == 1)
    return coords_ok and counts_ok


def _roundtrip_identical(tmp_path):
    bundle = checkpoint_cases.full_bundle()
    from trajdiff import checkpoint as ckpt
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    ckpt.save_bundle(p1, bundle)
    again = ckpt.load_bundle(p1)
    ckpt.save_bundle(p2, again)
    return p1.read_bytes() == p2.read_bytes()


def _run_cli_pipeline(d):
    d.mkdir()
    cfgp = d / "cfg.json"
    cfgp.write_text(json.dumps(TINY_CFG))
    raw = d / "raw.txt"
    raw.write_text("\n".join(f"{k} 1 {0.3 * k!r} {0.1 * k!r}"
                             for k in range(25)) + "\n")
    steps = {
        "imported.jsonl": ["import-ethucy", "--input", str(raw), "--scene",
                           "hand", "--frame-rate", "2.5",
                           "--out", str(d / "imported.jsonl")],
        "corpus.jsonl": ["gen-data", "--scenario", "t-intersection",
                         "--count", "300", "--seed", "3",
                         "--out", str(d / "corpus.jsonl"),
                         "--config", str(cfgp)],
        "pairs.jsonl": ["make-pairs", "--corpus", str(d / "corpus.jsonl"),
                        "--constraint", "slow-down", "--fraction", "0.15",
                        "--seed", "5", "--out", str(d / "pairs.jsonl"),
                        "--config", str(cfgp)],
        "scorer.ckpt": ["train-score", "--pairs", str(d / "pairs.jsonl"),
                        "--out", str(d / "scorer.ckpt"),
                        "--config", str(cfgp), "--seed", "0"],
        "scores.csv": ["score-corpus", "--checkpoint", str(d / "scorer.ckpt"),
                       "--corpus", str(d / "corpus.jsonl"),
                       "--out", str(d / "scores.csv")],
        "model.ckpt": ["train-diffusion", "--checkpoint",
                       str(d / "scorer.ckpt"),
                       "--corpus", str(d / "corpus.jsonl"),
                       "--scores", str(d / "scores.csv"),
                       "--out", str(d / "model.ckpt"), "--config", str(cfgp)],
        "pred.csv": ["predict", "--checkpoint", str(d / "model.ckpt"),
                     "--corpus", str(d / "corpus.jsonl"), "--c", "0.7",
                     "--n-s", "2", "--seed", "4", "--out", str(d / "pred.csv")],
        "metrics.csv": ["eval", "--checkpoint", str(d / "model.ckpt"),
                        "--corpus", str(d / "corpus.jsonl"), "--n-c", "2",
                        "--n-s", "2", "--limit", "2", "--seed", "0",
                        "--out", str(d / "metrics.csv")],
        "adherence.csv": ["sweep", "--checkpoint", str(d / "model.ckpt"),
                          "--corpus", str(d / "corpus.jsonl"), "--kind",
                          "adherence", "--grid-size", "3", "--n-s", "2",
                          "--limit", "2", "--seed", "1",
                          "--out", str(d / "adherence.csv")],
    }
    marker = str(d).encode()
    arts = {}
    for name, argv in steps.items():
        rc = cli_main(argv)
        if rc != 0:
            return None, name
        body = (d / name).read_bytes().replace(marker, b"@DIR@")
        if name == "metrics.csv":
            # wall-clock column varies run to run
            body = b"\n".join(ln.rsplit(b",", 1)[0]
                              for ln in body.splitlines())
        arts[name] = body
    return arts, None


def test_criterion_10_plumbing(tmp_path):
    import_ok = _import_exact(tmp_path)
    roundtrip_ok = _roundtrip_identical(tmp_path)

    first, err1 = _run_cli_pipeline(tmp_path / "a")
    second, err2 = _run_cli_pipeline(tmp_path / "b")
    if first is None or second is None:
        _verdict(10, False, f"pipeline step failed: {err1 or err2}")
    diffs = [n for n in first if first[n] != second[n]]
    repro_ok = not diffs

    ok = import_ok and roundtrip_ok and repro_ok
    _verdict(10, ok, f"hand-built import exact within 1e-9 ({import_ok}); "
                     f"checkpoint save/load/save byte-identical "
                     f"({roundtrip_ok}); 9 subcommands reproduce outputs "
                     f"byte-for-byte under fixed seeds "
                     f"(mismatches: {diffs or 'none'})")
