"""Trajectory corpora: synthetic scenes, ETH/UCY-style import, pairwise labels.

Positions are metres in world coordinates sampled every ``dt`` seconds.  A
trajectory is an observed history of ``n`` points plus a future of ``m``
points; neighbours are histories of nearby agents over the same window.
Pairwise samples hold two candidate futures for one history together with a
preference label produced by a constraint annotator.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

DEF_N = 8
DEF_M = 12
DEF_DT = 0.4
V_MAX = 4.0          # corpus sanity bound on speed, m/s
JITTER_SIGMA = 0.03  # positional noise added to synthetic points, metres

ANNOTATOR_KINDS = ("slow-down", "turn-right", "turn-left")
DEFAULT_TIE_THRESHOLD = {"slow-down": 0.1, "turn-right": 0.087, "turn-left": 0.087}


class DataError(ValueError):
    """Malformed input files or corpora that fail sanity checks."""


@dataclass
class Trajectory:
    id: int
    history: np.ndarray            # (n, 2)
    future: np.ndarray             # (m, 2)
    neighbors: list = field(default_factory=list)  # each (n, 2)
    dt: float = DEF_DT


@dataclass
class Corpus:
    trajectories: list
    meta: dict

    @property
    def n(self):
        return int(self.meta["n"])

    @property
    def m(self):
        return int(self.meta["m"])

    @property
    def dt(self):
        return float(self.meta["dt"])


@dataclass
class PairwiseSample:
    history: np.ndarray
    future_a: np.ndarray
    future_b: np.ndarray
    label: int                     # index of the preferred future
    neighbors: list = field(default_factory=list)


Features = namedtuple("Features", ["mean_speed", "signed_turn", "degenerate"])


def trajectory_features(future, history, dt):
    """Summarise a candidate future relative to its history.

    mean_speed averages step displacements over dt; the steps include the
    transition out of the observed window.  signed_turn is the wrapped angle
    from the history chord direction to the future chord direction, positive
    counter-clockwise.  If either chord is degenerate the turn is reported as
    0.0 with the degenerate flag set.
    """
    future = np.asarray(future, dtype=float)
    history = np.asarray(history, dtype=float)
    path = np.vstack([history[-1:], future])
    steps = np.diff(path, axis=0)
    mean_speed = float(np.linalg.norm(steps, axis=1).mean() / dt)
    h = history[-1] - history[0]
    f = future[-1] - future[0]
    if np.linalg.norm(h) < 1e-9 or np.linalg.norm(f) < 1e-9:
        return Features(mean_speed, 0.0, True)
    turn = math.atan2(h[0] * f[1] - h[1] * f[0], h[0] * f[0] + h[1] * f[1])
    return Features(mean_speed, float(turn), False)


@dataclass
class ConstraintAnnotator:
    """Deterministic preference rule over a pair of candidate futures."""

    kind: str
    tie_threshold: float = None

    def __post_init__(self):
        if self.kind not in ANNOTATOR_KINDS:
            raise DataError(f"unknown constraint kind '{self.kind}'")
        if self.tie_threshold is None:
            self.tie_threshold = DEFAULT_TIE_THRESHOLD[self.kind]

    def utility(self, history, future, dt):
        """Scalar preference feature; higher is better for this constraint."""
        feats = trajectory_features(future, history, dt)
        if self.kind == "slow-down":
            return -feats.mean_speed, False
        if self.kind == "turn-right":
            return -feats.signed_turn, feats.degenerate
        return feats.signed_turn, feats.degenerate

    def label(self, history, future_a, future_b, dt):
        """Return 0 or 1 for the preferred future, or None for a tie/skip."""
        ua, bad_a = self.utility(history, future_a, dt)
        ub, bad_b = self.utility(history, future_b, dt)
        if bad_a or bad_b:
            return None
        if abs(ua - ub) < self.tie_threshold:
            return None
        return 0 if ua > ub else 1


# ---------------------------------------------------------------------------
# synthetic corpora

def _jitter(rng, k, sigma=JITTER_SIGMA):
    # norm-clipped so worst-case step displacement stays under the scan bound
    e = rng.normal(0.0, sigma, size=(k, 2))
    norms = np.linalg.norm(e, axis=1)
    cap = 1.9 * sigma
    big = norms > cap
    e[big] *= (cap / norms[big])[:, None]
    return e


def _integrate(start, speeds, headings, dt):
    d = dt * speeds
    vecs = np.stack([d * np.cos(headings), d * np.sin(headings)], axis=1)
    pts = np.empty((len(speeds) + 1, 2))
    pts[0] = start
    pts[1:] = start + np.cumsum(vecs, axis=0)
    return pts


def _speed_profile(rng, n, steps):
    """Constant observed speed, then a smooth ramp to a new speed."""
    u0 = rng.uniform(0.5, 2.5)
    uf = float(np.clip(u0 * rng.uniform(0.4, 1.5), 0.3, 2.5))
    speeds = np.full(steps, u0)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(1, 7) / 6.0))
    speeds[n - 1:n + 5] = u0 + (uf - u0) * ramp
    speeds[n + 5:] = uf
    return speeds, u0


def _crossing_neighbor(rng, n, dt, x_ref):
    speed = rng.uniform(0.5, 2.0)
    sgn = rng.choice([-1.0, 1.0])
    y = rng.uniform(0.2, 1.4)
    xs = x_ref + rng.uniform(-4.0, 4.0) + sgn * speed * dt * np.arange(n)
    pts = np.stack([xs, np.full(n, y)], axis=1)
    return pts + _jitter(rng, n)


def _t_intersection_one(tid, rng, n, m, dt, turn_mix):
    maneuver = int(rng.choice(3, p=list(turn_mix)))  # 0 left, 1 right, 2 straight
    steps = n + m - 1
    speeds, u0 = _speed_profile(rng, n, steps)
    headings = np.full(steps, np.pi / 2)
    name = "straight"
    if maneuver != 2:
        delta = np.pi / 2 if maneuver == 0 else -np.pi / 2
        onset = int(rng.integers(n, n + 5))      # turn begins after the observed window
        dur = int(min(rng.integers(4, 8), steps - onset))
        prof = delta * 0.5 * (1.0 - np.cos(np.pi * np.arange(1, dur + 1) / dur))
        headings[onset:onset + dur] += prof
        headings[onset + dur:] += delta
        name = "left" if maneuver == 0 else "right"
    x0 = rng.uniform(-0.8, 0.8)
    start = np.array([x0, -dt * u0 * n])
    pts = _integrate(start, speeds, headings, dt) + _jitter(rng, steps + 1)
    nbrs = [_crossing_neighbor(rng, n, dt, x0) for _ in range(rng.integers(0, 3))]
    return Trajectory(tid, pts[:n], pts[n:], nbrs, dt), name


def _straight_hall_one(tid, rng, n, m, dt):
    steps = n + m - 1
    speeds, _ = _speed_profile(rng, n, steps)
    headings = np.full(steps, 0.0 if rng.uniform() < 0.5 else np.pi)
    start = np.array([rng.uniform(-4.0, 4.0), rng.uniform(-1.5, 1.5)])
    pts = _integrate(start, speeds, headings, dt) + _jitter(rng, steps + 1)
    nbrs = []
    for _ in range(rng.integers(0, 3)):
        speed = rng.uniform(0.5, 2.0)
        sgn = rng.choice([-1.0, 1.0])
        y = rng.uniform(-1.5, 1.5)
        xs = start[0] + rng.uniform(-4.0, 4.0) + sgn * speed * dt * np.arange(n)
        nbrs.append(np.stack([xs, np.full(n, y)], axis=1) + _jitter(rng, n))
    return Trajectory(tid, pts[:n], pts[n:], nbrs, dt)


def generate_synthetic(scenario, count, seed, n=DEF_N, m=DEF_M, dt=DEF_DT,
                       turn_mix=(0.35, 0.35, 0.30)):
    """Generate a corpus of desk-scale pedestrian scenes.

    t-intersection agents walk up a stem and then turn left, turn right, or
    continue according to turn_mix; straight-hall agents walk a corridor.
    Future windows carry smooth speed ramps (and any turning) so candidate
    futures genuinely differ given an observed history.  Each trajectory uses
    an RNG derived from (seed, id), so generation order is irrelevant.
    """
    if scenario not in ("t-intersection", "straight-hall"):
        raise DataError(f"unknown scenario '{scenario}'")
    if count < 1:
        raise DataError("count must be >= 1")
    trajs = []
    counts = {"left": 0, "right": 0, "straight": 0}
    for tid in range(count):
        rng = np.random.default_rng(np.random.SeedSequence((seed, tid)))
        if scenario == "t-intersection":
            traj, name = _t_intersection_one(tid, rng, n, m, dt, turn_mix)
            counts[name] += 1
        else:
            traj = _straight_hall_one(tid, rng, n, m, dt)
        trajs.append(traj)
    meta = {"scenario": scenario, "seed": int(seed), "dt": float(dt),
            "n": int(n), "m": int(m)}
    if scenario == "t-intersection":
        meta["maneuvers"] = counts
    return Corpus(trajs, meta)


# ---------------------------------------------------------------------------
# ETH/UCY-style import

def _parse_annotation_file(path):
    """Read whitespace-separated `frame_id ped_id x y` lines, grouped by ped."""
    tracks = {}
    lineno = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            toks = line.split()
            if len(toks) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(toks)}")
            try:
                frame, ped, x, y = (float(t) for t in toks)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric field") from None
            rows = tracks.setdefault(ped, [])
            if any(abs(frame - r[0]) < 1e-9 for r in rows):
                raise DataError(f"{path}: line {lineno}: duplicate frame {frame:g} "
                                f"for pedestrian {ped:g}")
            rows.append((frame, x, y))
    if not tracks:
        raise DataError(f"{path}: no tracks")
    return tracks


def import_ethucy(path, scene, frame_rate=25.0, n=DEF_N, m=DEF_M, dt=DEF_DT,
                  stride=1, radius=5.0, v_max=V_MAX):
    """Build a corpus from a raw annotation file.

    Each pedestrian track is resampled to one point every dt seconds by
    linear interpolation, then cut into (n, m) segments with the given
    stride.  Neighbours are other pedestrians whose raw track spans the
    segment's history window, interpolated at the ego timestamps, kept if
    within `radius` metres at the last observed time, nearest first.  Tracks
    too short to cut and segments breaking the v_max bound are counted in
    the corpus meta.
    """
    tracks = _parse_annotation_file(path)
    raw = {}
    for ped in sorted(tracks):
        rows = sorted(tracks[ped])
        t = np.array([r[0] for r in rows]) / frame_rate
        xy = np.array([[r[1], r[2]] for r in rows])
        raw[ped] = (t, xy)

    resampled = {}
    skipped_tracks = 0
    for ped, (t, xy) in raw.items():
        cnt = int(math.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
        if cnt < n + m:
            skipped_tracks += 1
            continue
        grid = t[0] + dt * np.arange(cnt)
        pts = np.stack([np.interp(grid, t, xy[:, 0]),
                        np.interp(grid, t, xy[:, 1])], axis=1)
        resampled[ped] = (grid, pts)

    trajs = []
    skipped_segments = 0
    tid = 0
    for ped in sorted(resampled):
        grid, pts = resampled[ped]
        for s in range(0, len(grid) - (n + m) + 1, stride):
            window = pts[s:s + n + m]
            disps = np.linalg.norm(np.diff(window, axis=0), axis=1)
            if disps.max() > v_max * dt + 1e-9:
                skipped_segments += 1
                continue
            t_hist = grid[s:s + n]
            nbrs = []
            for other in sorted(raw):
                if other == ped:
                    continue
                ot, oxy = raw[other]
                if ot[0] > t_hist[0] + 1e-9 or ot[-1] < t_hist[-1] - 1e-9:
                    continue
                opts = np.stack([np.interp(t_hist, ot, oxy[:, 0]),
                                 np.interp(t_hist, ot, oxy[:, 1])], axis=1)
                dist = float(np.linalg.norm(opts[-1] - window[n - 1]))
                if dist <= radius:
                    nbrs.append((dist, other, opts))
            nbrs.sort(key=lambda item: (item[0], item[1]))
            trajs.append(Trajectory(tid, window[:n], window[n:], [q for _, _, q in nbrs], dt))
            tid += 1
    if not trajs:
        raise DataError(f"{path}: no segments of length n+m={n + m} after resampling")
    meta = {"scenario": f"ethucy/{scene}", "seed": None, "dt": float(dt),
            "n": int(n), "m": int(m), "skipped_tracks": skipped_tracks,
            "skipped_segments": skipped_segments}
    return Corpus(trajs, meta)


# ---------------------------------------------------------------------------
# pairwise preference construction

def constant_velocity_future(history, m, dt):
    """Extrapolate the mean history velocity for m steps."""
    history = np.asarray(history, dtype=float)
    v = (history[-1] - history[0]) / ((len(history) - 1) * dt)
    return history[-1] + dt * v * np.arange(1, m + 1)[:, None]


def default_pair_generator(history, m, dt, rng):
    """Two rough candidate futures: constant velocity plus smooth steering
    and speed perturbations.  Fidelity is deliberately low; the candidates
    only need to differ enough for an annotator to rank them."""
    history = np.asarray(history, dtype=float)
    v = (history[-1] - history[0]) / ((len(history) - 1) * dt)
    speed = float(np.linalg.norm(v))
    if speed < 1e-8:
        v = np.array([1e-3, 0.0])
        speed = 1e-3
    base = math.atan2(v[1], v[0])

    def one():
        s = rng.uniform(0.4, 1.6)
        omega = rng.uniform(-0.12, 0.12)
        angles = base + omega * np.arange(1, m + 1)
        d = dt * speed * s
        steps = np.stack([d * np.cos(angles), d * np.sin(angles)], axis=1)
        return history[-1] + np.cumsum(steps, axis=0)

    return one(), one()


def make_pairs(corpus, annotator, fraction, generator=None, seed=0):
    """Label candidate-future pairs for a fraction of corpus histories.

    Ties (annotator feature gap under the threshold) and identical futures
    are skipped, so the returned list may be shorter than the number of
    sampled histories.  Per-history RNGs derive from (seed, trajectory id).
    """
    if not 0 < fraction <= 1:
        raise DataError(f"fraction must be in (0, 1], got {fraction}")
    gen = generator or default_pair_generator
    m, dt = corpus.m, corpus.dt
    total = len(corpus.trajectories)
    k = max(1, int(round(fraction * total)))
    chosen = np.sort(np.random.default_rng(seed).permutation(total)[:k])
    pairs = []
    for idx in chosen:
        traj = corpus.trajectories[int(idx)]
        rng = np.random.default_rng(np.random.SeedSequence((seed, int(traj.id))))
        fa, fb = gen(traj.history, m, dt, rng)
        if np.array_equal(fa, fb):
            continue
        lab = annotator.label(traj.history, fa, fb, dt)
        if lab is None:
            continue
        pairs.append(PairwiseSample(traj.history.copy(), fa, fb, lab,
                                    [q.copy() for q in traj.neighbors]))
    return pairs


# ---------------------------------------------------------------------------
# train/test splitting by id hash

def is_test_id(tid, test_fraction=0.2):
    """Stable id-hash split: the same id lands on the same side forever."""
    digest = hashlib.sha1(str(int(tid)).encode()).digest()
    bucket = int.from_bytes(digest[:4], "big") % 1000
    return bucket < int(round(test_fraction * 1000))


def split_corpus(corpus, test_fraction=0.2):
    train, test = [], []
    for traj in corpus.trajectories:
        (test if is_test_id(traj.id, test_fraction) else train).append(traj)
    tr = Corpus(train, dict(corpus.meta, split="train"))
    te = Corpus(test, dict(corpus.meta, split="test"))
    return tr, te


# ---------------------------------------------------------------------------
# on-disk formats: line-delimited JSON with a header record

def validate_corpus(corpus, v_max=V_MAX):
    if not corpus.trajectories:
        raise DataError("corpus is empty")
    n, m, dt = corpus.n, corpus.m, corpus.dt
    for traj in corpus.trajectories:
        if traj.history.shape != (n, 2) or traj.future.shape != (m, 2):
            raise DataError(f"trajectory {traj.id}: bad shapes "
                            f"{traj.history.shape} / {traj.future.shape}")
        path = np.vstack([traj.history, traj.future])
        if not np.isfinite(path).all():
            raise DataError(f"trajectory {traj.id}: non-finite coordinates")
        disps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        if disps.max() > v_max * dt + 1e-9:
            raise DataError(f"trajectory {traj.id}: step displacement "
                            f"{disps.max():.3f} m exceeds v_max*dt")
        for q in traj.neighbors:
            if np.asarray(q).shape != (n, 2) or not np.isfinite(q).all():
                raise DataError(f"trajectory {traj.id}: bad neighbor track")


def _json_line(line, lineno, path):
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise DataError(f"{path}: line {lineno}: invalid record") from None


def save_corpus(corpus, path):
    validate_corpus(corpus)
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "corpus", "version": 1, **corpus.meta}) + "\n")
        for t in corpus.trajectories:
            rec = {"id": int(t.id),
                   "history": np.asarray(t.history).tolist(),
                   "future": np.asarray(t.future).tolist(),
                   "neighbors": [np.asarray(q).tolist() for q in t.neighbors]}
            fh.write(json.dumps(rec) + "\n")


def _bad_field(exc):
    """Short reason for a record that failed to parse into arrays."""
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc)


def load_corpus(path):
    with open(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise DataError(f"{path}: empty corpus file")
        header = _json_line(first, 1, path)
        if not isinstance(header, dict) or header.get("kind") != "corpus":
            raise DataError(f"{path}: not a corpus file")
        meta = {k: v for k, v in header.items() if k not in ("kind", "version")}
        try:
            int(meta["n"]), int(meta["m"])   # Corpus.n and .m convert on access
            dt = float(meta["dt"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: line 1: bad header: {_bad_field(exc)}") from None
        trajs = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = _json_line(line, lineno, path)
            try:
                trajs.append(Trajectory(int(rec["id"]),
                                        np.array(rec["history"], dtype=float),
                                        np.array(rec["future"], dtype=float),
                                        [np.array(q, dtype=float) for q in rec["neighbors"]],
                                        dt))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {lineno}: bad record: "
                                f"{_bad_field(exc)}") from None
    corpus = Corpus(trajs, meta)
    validate_corpus(corpus)
    return corpus


def save_pairs(pairs, path, meta):
    if not pairs:
        raise DataError("no pairs to save")
    with open(path, "w") as fh:
        fh.write(json.dumps({"kind": "pairs", "version": 1, **meta}) + "\n")
        for p in pairs:
            rec = {"history": np.asarray(p.history).tolist(),
                   "future_a": np.asarray(p.future_a).tolist(),
                   "future_b": np.asarray(p.future_b).tolist(),
                   "label": int(p.label),
                   "neighbors": [np.asarray(q).tolist() for q in p.neighbors]}
            fh.write(json.dumps(rec) + "\n")


def load_pairs(path):
    """Return (pairs, meta)."""
    with open(path) as fh:
        first = fh.readline()
        if not first.strip():
            raise DataError(f"{path}: empty pairs file")
        header = _json_line(first, 1, path)
        if not isinstance(header, dict) or header.get("kind") != "pairs":
            raise DataError(f"{path}: not a pairs file")
        meta = {k: v for k, v in header.items() if k not in ("kind", "version")}
        pairs = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = _json_line(line, lineno, path)
            try:
                label = rec["label"]
                fa = np.array(rec["future_a"], dtype=float)
                fb = np.array(rec["future_b"], dtype=float)
                history = np.array(rec["history"], dtype=float)
                neighbors = [np.array(q, dtype=float) for q in rec["neighbors"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: line {lineno}: bad record: "
                                f"{_bad_field(exc)}") from None
            if label not in (0, 1):
                raise DataError(f"{path}: line {lineno}: label must be 0 or 1")
            # every track is (steps, 2), with the first record's lengths
            ref = pairs[0] if pairs else PairwiseSample(history, fa, fb, 0, [])
            past = ref.history.shape[:1] + (2,)
            ahead = ref.future_a.shape[:1] + (2,)
            tracks = ([(history, past), (fa, ahead), (fb, ahead)]
                      + [(q, past) for q in neighbors])
            if any(a.shape != want for a, want in tracks):
                raise DataError(f"{path}: line {lineno}: bad record: want "
                                f"{past} history and neighbours, "
                                f"{ahead} futures")
            if np.array_equal(fa, fb):
                raise DataError(f"{path}: line {lineno}: identical futures")
            pairs.append(PairwiseSample(history, fa, fb, int(label), neighbors))
    if not pairs:
        raise DataError(f"{path}: no pairs")
    return pairs, meta


# ---------------------------------------------------------------------------
# CSV tables with a "# key=value" preamble

def write_table(path, meta, header, rows):
    """Write one "# key=value" line per meta entry in key order, then the
    CSV header and the already formatted rows."""
    with open(path, "w") as fh:
        for k in sorted(meta):
            fh.write(f"# {k}={meta[k]}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def load_scores_csv(path):
    """Read a score table; returns (constraint name or None, id -> score)."""
    name = None
    scores = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    body = []
    for ln in lines:
        if ln.startswith("#"):
            key, _, val = ln[1:].strip().partition("=")
            if key == "constraint":
                name = val
        elif ln:
            body.append(ln)
    if not body or body[0] != "trajectory_id,score":
        raise DataError(f"{path}: not a score table")
    for k, ln in enumerate(body[1:], start=2):
        fields = ln.split(",")
        try:
            scores[int(fields[0])] = float(fields[1])
        except (IndexError, ValueError):
            raise DataError(f"{path}: bad score row {k}: {ln!r}")
    return name, scores
