"""Corpus generation, annotation import, features, and pairwise labeling."""

import math

import numpy as np
import pytest

from trajdiff import data


@pytest.fixture(scope="module")
def big_corpus():
    return data.generate_synthetic("t-intersection", 5000, 3)


# ---------------------------------------------------------------------------
# synthetic generation

def test_generate_deterministic(tmp_path):
    a = data.generate_synthetic("t-intersection", 100, 7)
    b = data.generate_synthetic("t-intersection", 100, 7)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    data.save_corpus(a, pa)
    data.save_corpus(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_unknown_scenario():
    with pytest.raises(data.DataError, match="unknown scenario"):
        data.generate_synthetic("roundabout", 10, 0)


def test_generate_step_displacement_bound():
    # top speed 2.5 m/s plus two jitter endpoints, each norm-capped at 1.9 sigma
    bound = 2.5 * 0.4 + 4 * data.JITTER_SIGMA
    for scenario, count, seed in [("t-intersection", 300, 11), ("straight-hall", 200, 2)]:
        corpus = data.generate_synthetic(scenario, count, seed)
        for traj in corpus.trajectories:
            path = np.vstack([traj.history, traj.future])
            disps = np.linalg.norm(np.diff(path, axis=0), axis=1)
            assert disps.max() <= bound + 1e-12


def test_generate_turn_mix(big_corpus):
    drawn = big_corpus.meta["maneuvers"]
    total = len(big_corpus.trajectories)
    for key, p in [("left", 0.35), ("right", 0.35), ("straight", 0.30)]:
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(drawn[key] - total * p) <= 3 * sigma, (key, drawn[key])
    # the drawn maneuver is visible in the geometry: classify each future by
    # the heading of its last three steps relative to the approach direction
    counted = {"left": 0, "right": 0, "straight": 0}
    for traj in big_corpus.trajectories:
        chord = traj.future[-1] - traj.future[-4]
        off = math.atan2(chord[1], chord[0]) - np.pi / 2
        off = (off + np.pi) % (2 * np.pi) - np.pi
        if off > 0.7:
            counted["left"] += 1
        elif off < -0.7:
            counted["right"] += 1
        else:
            counted["straight"] += 1
    assert counted == drawn


def test_generate_neighbor_shapes(big_corpus):
    n = big_corpus.n
    seen = set()
    for traj in big_corpus.trajectories[:500]:
        seen.add(len(traj.neighbors))
        for q in traj.neighbors:
            assert q.shape == (n, 2)
    assert seen == {0, 1, 2}


# ---------------------------------------------------------------------------
# annotation-file import

def _write(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_import_single_track_exact(tmp_path):
    # already at one point per dt: 20 frames at 2.5 fps, x = frame index
    lines = [f"{k} 1 {float(k)!r} 0.0" for k in range(20)]
    corpus = data.import_ethucy(_write(tmp_path / "one.txt", lines), "one", frame_rate=2.5)
    assert len(corpus.trajectories) == 1
    traj = corpus.trajectories[0]
    assert np.allclose(traj.history[:, 0], np.arange(8), atol=1e-9)
    assert np.allclose(traj.future[:, 0], np.arange(8, 20), atol=1e-9)
    assert np.allclose(traj.history[:, 1], 0.0, atol=1e-9)
    assert traj.neighbors == []
    assert corpus.meta["skipped_tracks"] == 0


def test_import_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(data.DataError, match="no tracks"):
        data.import_ethucy(str(p), "empty")


def test_import_resample_spacing(tmp_path):
    # 10 fps walker at 1.3 m/s; resampled steps must be exactly dt * speed
    lines = [f"{k} 4 {1.3 * k / 10.0!r} 0.0" for k in range(81)]
    corpus = data.import_ethucy(_write(tmp_path / "ten.txt", lines), "ten", frame_rate=10.0)
    assert len(corpus.trajectories) == 2
    for traj in corpus.trajectories:
        path = np.vstack([traj.history, traj.future])
        disps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        assert np.abs(disps - 1.3 * 0.4).max() < 1e-9


def test_import_malformed_line(tmp_path):
    lines = ["0 1 0.0 0.0", "1 1 0.4 0.0", "2 1 0.8"]
    with pytest.raises(data.DataError, match="line 3"):
        data.import_ethucy(_write(tmp_path / "bad.txt", lines), "bad", frame_rate=2.5)
    lines = ["0 1 0.0 0.0", "1 1 x 0.0"]
    with pytest.raises(data.DataError, match="line 2"):
        data.import_ethucy(_write(tmp_path / "bad2.txt", lines), "bad", frame_rate=2.5)


def test_import_short_track_skipped(tmp_path):
    lines = [f"{k} 1 {0.4 * k!r} 0.0" for k in range(30)]
    lines += [f"{k} 2 {0.4 * k!r} 50.0" for k in range(10)]
    corpus = data.import_ethucy(_write(tmp_path / "mix.txt", lines), "mix", frame_rate=2.5)
    assert corpus.meta["skipped_tracks"] == 1
    assert len(corpus.trajectories) == 30 - 20 + 1
    assert all(abs(t.history[0, 1]) < 1e-9 for t in corpus.trajectories)


def test_import_already_at_rate_is_identity(tmp_path):
    rng = np.random.default_rng(0)
    steps = rng.uniform(-0.7, 0.7, size=(24, 2))
    pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    lines = [f"{k} 7 {float(pts[k, 0])!r} {float(pts[k, 1])!r}" for k in range(25)]
    corpus = data.import_ethucy(_write(tmp_path / "walk.txt", lines), "walk", frame_rate=2.5)
    assert len(corpus.trajectories) == 25 - 20 + 1
    for s, traj in enumerate(corpus.trajectories):
        assert np.abs(traj.history - pts[s:s + 8]).max() < 1e-9
        assert np.abs(traj.future - pts[s + 8:s + 20]).max() < 1e-9


def test_import_neighbors_radius_and_no_mixing(tmp_path):
    lines = []
    for k in range(20):
        x = 0.4 * k
        lines.append(f"{k} 1 {x!r} 0.0")
        lines.append(f"{k} 2 {x!r} 3.0")
        lines.append(f"{k} 3 {x!r} 100.0")
    corpus = data.import_ethucy(_write(tmp_path / "trio.txt", lines), "trio", frame_rate=2.5)
    assert len(corpus.trajectories) == 3
    by_y = {round(t.history[0, 1]): t for t in corpus.trajectories}
    assert set(by_y) == {0, 3, 100}
    for t in corpus.trajectories:
        # a segment never mixes pedestrians: y is constant per source track
        path = np.vstack([t.history, t.future])
        assert np.ptp(path[:, 1]) < 1e-9
    assert len(by_y[0].neighbors) == 1
    assert np.allclose(by_y[0].neighbors[0][:, 1], 3.0, atol=1e-9)
    assert np.allclose(by_y[0].neighbors[0][:, 0], by_y[0].history[:, 0], atol=1e-9)
    assert len(by_y[3].neighbors) == 1
    assert len(by_y[100].neighbors) == 0


# ---------------------------------------------------------------------------
# features and annotators

def test_features_straight_line():
    # dyadic coordinates so the arithmetic is exact
    dt = 0.5
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    future = np.stack([0.5 * np.arange(8, 20), np.zeros(12)], axis=1)
    feats = data.trajectory_features(future, history, dt)
    assert feats.mean_speed == 1.0
    assert feats.signed_turn == 0.0
    assert not feats.degenerate


def test_features_right_angle_turn():
    dt = 0.5
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    # future heads straight down: rotated 90 degrees clockwise
    future = np.stack([np.full(12, 3.5), -0.5 * np.arange(1, 13)], axis=1)
    feats = data.trajectory_features(future, history, dt)
    assert abs(feats.signed_turn - (-np.pi / 2)) < 1e-9
    future_ccw = np.stack([np.full(12, 3.5), 0.5 * np.arange(1, 13)], axis=1)
    assert abs(data.trajectory_features(future_ccw, history, dt).signed_turn - np.pi / 2) < 1e-9


def test_features_stationary_future():
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    future = np.tile(history[-1], (12, 1))
    feats = data.trajectory_features(future, history, 0.5)
    assert feats.mean_speed == 0.0
    assert feats.degenerate


def _future_at_speed(history, speed, dt, m=12):
    v = np.array([speed, 0.0])
    return history[-1] + dt * v * np.arange(1, m + 1)[:, None]


def test_annotator_slow_down_prefers_slower():
    dt = 0.5
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    slow = _future_at_speed(history, 1.0, dt)
    fast = _future_at_speed(history, 2.0, dt)
    ann = data.ConstraintAnnotator("slow-down")
    assert ann.label(history, slow, fast, dt) == 0
    assert ann.label(history, fast, slow, dt) == 1


def test_annotator_identical_futures_tie():
    dt = 0.5
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    fut = _future_at_speed(history, 1.0, dt)
    for kind in data.ANNOTATOR_KINDS:
        assert data.ConstraintAnnotator(kind).label(history, fut, fut.copy(), dt) is None


def test_annotator_turn_directions():
    dt = 0.5
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    straight = _future_at_speed(history, 1.0, dt)
    down = np.stack([np.full(12, 3.5), -0.5 * np.arange(1, 13)], axis=1)  # clockwise
    assert data.ConstraintAnnotator("turn-right").label(history, down, straight, dt) == 0
    assert data.ConstraintAnnotator("turn-left").label(history, down, straight, dt) == 1


def test_annotator_swap_flips_label():
    rng = np.random.default_rng(9)
    dt = 0.4
    history = np.stack([0.4 * np.arange(8), np.zeros(8)], axis=1)
    for kind in data.ANNOTATOR_KINDS:
        ann = data.ConstraintAnnotator(kind)
        for _ in range(200):
            fa, fb = data.default_pair_generator(history, 12, dt, rng)
            la = ann.label(history, fa, fb, dt)
            lb = ann.label(history, fb, fa, dt)
            if la is None:
                assert lb is None
            else:
                assert la + lb == 1


def test_annotator_unknown_kind():
    with pytest.raises(data.DataError, match="unknown constraint kind"):
        data.ConstraintAnnotator("zig-zag")


# ---------------------------------------------------------------------------
# pair construction

def test_make_pairs_sampled_count_and_determinism(big_corpus, tmp_path):
    calls = []

    def counting_gen(history, m, dt, rng):
        calls.append(1)
        return data.default_pair_generator(history, m, dt, rng)

    ann = data.ConstraintAnnotator("slow-down")
    pairs = data.make_pairs(big_corpus, ann, 0.01, generator=counting_gen, seed=5)
    assert len(calls) == 50          # fraction of the corpus, before tie skips
    assert 25 <= len(pairs) <= 50
    again = data.make_pairs(big_corpus, ann, 0.01, seed=5)
    pa, pb = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
    meta = {"n": 8, "m": 12, "dt": 0.4, "constraint": "slow-down"}
    data.save_pairs(pairs, pa, meta)
    data.save_pairs(again, pb, meta)
    assert pa.read_bytes() == pb.read_bytes()


def test_make_pairs_fraction_range(big_corpus):
    ann = data.ConstraintAnnotator("slow-down")
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(data.DataError, match="fraction"):
            data.make_pairs(big_corpus, ann, bad)


def test_constant_velocity_future():
    history = np.stack([0.5 * np.arange(8), np.zeros(8)], axis=1)
    fut = data.constant_velocity_future(history, 12, 0.5)
    assert np.array_equal(fut[:, 0], 3.5 + 0.5 * np.arange(1, 13))
    assert np.array_equal(fut[:, 1], np.zeros(12))


# ---------------------------------------------------------------------------
# persistence and splitting

def test_corpus_roundtrip_bytes(tmp_path):
    corpus = data.generate_synthetic("t-intersection", 40, 1)
    p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    data.save_corpus(corpus, p1)
    loaded = data.load_corpus(p1)
    data.save_corpus(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(corpus.trajectories, loaded.trajectories):
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.future, b.future)
        assert len(a.neighbors) == len(b.neighbors)


def test_pairs_roundtrip(tmp_path):
    corpus = data.generate_synthetic("t-intersection", 200, 1)
    ann = data.ConstraintAnnotator("turn-left")
    pairs = data.make_pairs(corpus, ann, 0.5, seed=2)
    assert pairs
    p1 = tmp_path / "pairs.jsonl"
    meta = {"n": 8, "m": 12, "dt": 0.4, "constraint": "turn-left"}
    data.save_pairs(pairs, p1, meta)
    loaded, got_meta = data.load_pairs(p1)
    assert got_meta["constraint"] == "turn-left"
    assert len(loaded) == len(pairs)
    for a, b in zip(pairs, loaded):
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(a.future_a, b.future_a)
        assert np.array_equal(a.future_b, b.future_b)
        assert a.label == b.label


def test_load_corpus_rejects_garbage(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text("not json\n")
    with pytest.raises(data.DataError):
        data.load_corpus(p)
    p.write_text("")
    with pytest.raises(data.DataError, match="empty"):
        data.load_corpus(p)


def test_split_corpus_stable_and_disjoint(big_corpus):
    train, test = data.split_corpus(big_corpus)
    frac = len(test.trajectories) / len(big_corpus.trajectories)
    assert 0.15 <= frac <= 0.25
    tr_ids = {t.id for t in train.trajectories}
    te_ids = {t.id for t in test.trajectories}
    assert not tr_ids & te_ids
    assert len(tr_ids | te_ids) == len(big_corpus.trajectories)
    assert all(data.is_test_id(i) for i in te_ids)
    assert not any(data.is_test_id(i) for i in tr_ids)


def test_validate_corpus_rejects_bad_data():
    corpus = data.generate_synthetic("t-intersection", 5, 0)
    corpus.trajectories[2].future[3, 0] = np.nan
    with pytest.raises(data.DataError, match="trajectory 2"):
        data.validate_corpus(corpus)
    corpus = data.generate_synthetic("t-intersection", 5, 0)
    corpus.trajectories[1].future[5] += 10.0   # teleport
    with pytest.raises(data.DataError, match="trajectory 1"):
        data.validate_corpus(corpus)
    with pytest.raises(data.DataError, match="empty"):
        data.validate_corpus(data.Corpus([], {"n": 8, "m": 12, "dt": 0.4}))
    corpus = data.generate_synthetic("t-intersection", 5, 0)
    corpus.trajectories[3].id = 1
    with pytest.raises(data.DataError, match="trajectory 1: repeated id"):
        data.validate_corpus(corpus)
