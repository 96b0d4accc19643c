"""Prediction metrics, adherence curves, and sampling-budget sweeps.

minADE/minFDE follow the best-of-N convention: every sampled future is
scored against the ground truth and only the best one counts.  Adherence
reports quantify whether the score channel actually steers generation by
correlating a conditioning grid with the mean feature of the samples it
produces.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import data as data_mod
from . import diffusion
from . import encoder as enc_mod

ABLATION_PAIRS = ((20, 20), (20, 1), (15, 5), (10, 10), (5, 15))

# a curve correlating weaker than this is flagged as non-adherent
ADHERENCE_THRESHOLD = 0.3

# feature measured per constraint kind, and the direction the feature
# should move as the conditioning value grows
_KIND_FEATURE = {
    "slow-down": ("mean_speed", -1.0),
    "turn-right": ("signed_turn", -1.0),
    "turn-left": ("signed_turn", 1.0),
}


@dataclass
class MetricReport:
    n_c: int
    n_s: int
    min_ade: float
    min_fde: float
    per_trajectory: list = field(repr=False)
    runtime_seconds: float = 0.0


@dataclass
class AdherenceReport:
    kind: str
    axis: int
    grid: np.ndarray
    mean_feature: np.ndarray
    rho: float
    monotone_fraction: float
    adheres: bool


@dataclass
class GridReport:
    grid: np.ndarray
    cells: list                  # ((c1, c2), mean_turn, mean_speed)
    rho: np.ndarray              # [axis, feature], features (turn, speed)
    effect: np.ndarray           # z-scored spread per [axis, feature]


# ---------------------------------------------------------------------------
# displacement metrics

def min_ade_fde(samples, ground_truth):
    """Best-of-N displacement errors for one trajectory.

    ADE of a sample is the mean Euclidean distance over the m future
    steps; FDE is the distance at the final step.  Both are minimized
    over the samples independently.
    """
    if len(samples) == 0:
        raise ValueError("min_ade_fde: need at least one sample")
    gt = np.asarray(ground_truth, dtype=float)
    ades, fdes = [], []
    for s in samples:
        d = np.sqrt(((np.asarray(s, dtype=float) - gt) ** 2).sum(axis=1))
        ades.append(d.mean())
        fdes.append(d[-1])
    return float(min(ades)), float(min(fdes))


# ---------------------------------------------------------------------------
# rank correlation

def _ranks(v):
    # average ranks for ties, 1-based
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y):
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("spearman: need two equal-length vectors")
    if x.size < 2:
        raise ValueError("spearman: need at least 2 points")
    rx, ry = _ranks(x), _ranks(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = np.sqrt((dx ** 2).sum() * (dy ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float((dx * dy).sum() / denom)


# ---------------------------------------------------------------------------
# corpus-level metric evaluation

def _cell_seed(seed, index):
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def evaluate_trajectories(trajs, enc_params, schedule, den_params,
                          n_c, n_s, seed=0, mode="ancestral"):
    """Best-of-(n_c x n_s) metrics averaged over the given trajectories."""
    if not trajs:
        raise ValueError("evaluate_trajectories: no trajectories")
    t0 = time.perf_counter()
    rows = []
    for k, t in enumerate(trajs):
        preds = diffusion.predict_best_of(
            t.history, t.neighbors, enc_params, schedule, den_params,
            n_c, n_s, seed=_cell_seed(seed, k), mode=mode)
        ade, fde = min_ade_fde([f for _, _, f in preds], t.future)
        rows.append((t.id, ade, fde))
    return MetricReport(
        n_c=n_c, n_s=n_s,
        min_ade=float(np.mean([r[1] for r in rows])),
        min_fde=float(np.mean([r[2] for r in rows])),
        per_trajectory=rows,
        runtime_seconds=time.perf_counter() - t0)


def constant_velocity_report(trajs, dt):
    """Single-sample extrapolation baseline over the same trajectories."""
    if not trajs:
        raise ValueError("constant_velocity_report: no trajectories")
    t0 = time.perf_counter()
    rows = []
    for t in trajs:
        fut = data_mod.constant_velocity_future(t.history, t.future.shape[0], dt)
        ade, fde = min_ade_fde([fut], t.future)
        rows.append((t.id, ade, fde))
    return MetricReport(
        n_c=1, n_s=1,
        min_ade=float(np.mean([r[1] for r in rows])),
        min_fde=float(np.mean([r[2] for r in rows])),
        per_trajectory=rows,
        runtime_seconds=time.perf_counter() - t0)


def ablation_sweep(trajs, enc_params, schedule, den_params,
                   pairs=ABLATION_PAIRS, seed=0, mode="ancestral"):
    """One MetricReport per (n_c, n_s) sampling budget, fixed seeds per cell."""
    out = []
    for ci, (n_c, n_s) in enumerate(pairs):
        out.append(evaluate_trajectories(
            trajs, enc_params, schedule, den_params, n_c, n_s,
            seed=_cell_seed(seed, 1000 + ci), mode=mode))
    return out


# ---------------------------------------------------------------------------
# adherence to the conditioning value

def _cell_means(histories, neighbors_list, enc_params, schedule, den_params,
                cells, n_s, mode, dt):
    """Mean (speed, signed turn) of the samples of each conditioning cell.

    The histories are encoded once.  Each cell is a (seed key, score vector)
    pair; its n_s futures per history come from one reverse chain whose
    noise is drawn by a generator seeded with that key.  Returns two arrays
    with one entry per cell.
    """
    hists = np.stack(histories)
    feats = enc_mod.encode_many(hists, list(neighbors_list), enc_params)
    speeds, turns = [], []
    for key, scores in cells:
        rng = np.random.default_rng(np.random.SeedSequence(key))
        futures = diffusion.sample_batch(feats, scores, n_s, hists[:, -1],
                                         schedule, den_params, [rng], mode)
        samples = [data_mod.trajectory_features(fut, hist, dt)
                   for hist, draws in zip(histories, futures[:, 0])
                   for fut in draws]
        speeds.append(np.mean([f.mean_speed for f in samples]))
        turns.append(np.mean([f.signed_turn for f in samples]))
    return np.array(speeds), np.array(turns)


def adherence_curve(histories, neighbors_list, enc_params, schedule,
                    den_params, kind, grid_size=20, n_s=10, axis=0,
                    fixed=0.5, seed=0, mode="ancestral", dt=data_mod.DEF_DT):
    """Correlate a conditioning grid with the mean sampled feature.

    For each grid value the chosen score channel is set to it (other
    channels stay at `fixed`), n_s futures are sampled per history, and
    the constraint's feature is averaged.  The report carries Spearman
    rho over the grid, the fraction of adjacent grid steps moving in the
    constraint's direction, and a flag for curves correlating weaker
    than ADHERENCE_THRESHOLD in the expected direction.
    """
    if kind not in _KIND_FEATURE:
        raise ValueError(f"unknown constraint kind '{kind}'")
    if not 0 <= axis < den_params.n_scores:
        raise ValueError(f"constraint axis {axis} out of range for a "
                         f"{den_params.n_scores}-score model")
    if grid_size < 2:
        raise ValueError("adherence_curve: need grid_size >= 2")
    feature, direction = _KIND_FEATURE[kind]
    grid = (np.arange(grid_size) + 0.5) / grid_size
    scores = np.full((grid_size, den_params.n_scores), fixed)
    scores[:, axis] = grid
    speeds, turns = _cell_means(
        histories, neighbors_list, enc_params, schedule, den_params,
        [((seed, gi), row) for gi, row in enumerate(scores)], n_s, mode, dt)
    means = speeds if feature == "mean_speed" else turns
    rho = spearman(grid, means)
    steps = np.diff(means) * direction
    mono = float((steps > 0).mean())
    return AdherenceReport(
        kind=kind, axis=axis, grid=grid, mean_feature=means, rho=rho,
        monotone_fraction=mono,
        adheres=bool(rho * direction >= ADHERENCE_THRESHOLD))


def multi_constraint_grid(histories, neighbors_list, enc_params, schedule,
                          den_params, n=5, n_s=10, seed=0, mode="ancestral",
                          dt=data_mod.DEF_DT):
    """Sweep a 2-score model over an n x n conditioning grid.

    Cell (i, j) conditions channel 0 on grid[i] and channel 1 on
    grid[j]; each cell records the mean (signed_turn, mean_speed) of its
    samples.  rho[a, f] is the Spearman correlation of feature f along
    axis a with the other axis held fixed, averaged over the held
    values.  effect[a, f] is the spread each axis induces in each
    feature after z-scoring cell means, so the two features compare on
    one scale.
    """
    if den_params.n_scores != 2:
        raise ValueError(f"multi_constraint_grid: model has "
                         f"{den_params.n_scores} scores, need 2")
    if n < 2:
        raise ValueError("multi_constraint_grid: need n >= 2")
    grid = (np.arange(n) + 0.5) / n
    ij = [(i, j) for i in range(n) for j in range(n)]
    speeds, turns = _cell_means(
        histories, neighbors_list, enc_params, schedule, den_params,
        [((seed, i, j), grid[[i, j]]) for i, j in ij], n_s, mode, dt)
    cells = [((float(grid[i]), float(grid[j])), float(turn), float(speed))
             for (i, j), turn, speed in zip(ij, turns, speeds)]
    cell_turn, cell_speed = turns.reshape(n, n), speeds.reshape(n, n)
    rho = np.zeros((2, 2))
    effect = np.zeros((2, 2))
    for fi, cell in enumerate((cell_turn, cell_speed)):
        z = (cell - cell.mean()) / max(cell.std(), 1e-12)
        # axis 0 varies channel 0 (rows), axis 1 varies channel 1 (columns)
        rho[0, fi] = np.mean([spearman(grid, cell[:, j]) for j in range(n)])
        rho[1, fi] = np.mean([spearman(grid, cell[i, :]) for i in range(n)])
        effect[0, fi] = np.mean([z[:, j].std() for j in range(n)])
        effect[1, fi] = np.mean([z[i, :].std() for i in range(n)])
    return GridReport(grid=grid, cells=cells, rho=rho, effect=effect)


# ---------------------------------------------------------------------------
# CSV reports

def write_metric_csv(path, reports, meta=None):
    """Aggregate rows for one or more MetricReports."""
    data_mod.write_table(
        path, meta or {}, "n_c,n_s,min_ade,min_fde,runtime_seconds",
        (f"{r.n_c},{r.n_s},{r.min_ade:.6f},{r.min_fde:.6f},"
         f"{r.runtime_seconds:.3f}" for r in reports))


def write_adherence_csv(path, report, meta=None):
    full = dict(meta or {})
    full.update(kind=report.kind, axis=report.axis,
                rho=f"{report.rho:.6f}",
                monotone_fraction=f"{report.monotone_fraction:.6f}",
                adheres=report.adheres)
    data_mod.write_table(
        path, full, "c,mean_feature",
        (f"{c:.6f},{v:.6f}" for c, v in zip(report.grid, report.mean_feature)))


def write_grid_csv(path, report, meta=None):
    full = dict(meta or {})
    for a in range(2):
        for fi, fname in enumerate(("turn", "speed")):
            full[f"rho_axis{a}_{fname}"] = f"{report.rho[a, fi]:.6f}"
            full[f"effect_axis{a}_{fname}"] = f"{report.effect[a, fi]:.6f}"
    data_mod.write_table(
        path, full, "c1,c2,mean_turn,mean_speed",
        (f"{c1:.6f},{c2:.6f},{turn:.6f},{speed:.6f}"
         for (c1, c2), turn, speed in report.cells))
