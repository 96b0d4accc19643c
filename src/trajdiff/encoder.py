"""Shared history encoder.

A recurrent cell summarises the target agent's observed track (ego-relative
positions plus finite-difference velocities); a second cell summarises each
neighbour's track of per-step offsets from the ego.  Neighbour summaries are
averaged, so the feature is invariant to neighbour order, and an empty
neighbour set contributes an exact zero block.  Both the preference scorer
and the denoiser condition on the same feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import trajdiff.autodiff as ad


@dataclass
class EncoderParams:
    d_e: int           # ego hidden width
    d_n: int           # edge hidden width
    n: int             # expected history length
    dt: float
    weights: dict      # name -> parameter Node

    @property
    def feature_dim(self):
        return self.d_e + self.d_n


def init_encoder(d_e=64, d_n=32, n=8, dt=0.4, seed=0):
    rng = np.random.default_rng(seed)
    weights = {}

    def cell(prefix, din, hid):
        s = 1.0 / np.sqrt(hid)
        weights[f"{prefix}.wx"] = ad.parameter(rng.uniform(-s, s, size=(din, 3 * hid)))
        weights[f"{prefix}.wh"] = ad.parameter(rng.uniform(-s, s, size=(hid, 3 * hid)))
        weights[f"{prefix}.b"] = ad.parameter(np.zeros(3 * hid))

    cell("enc.ego", 4, d_e)
    cell("enc.edge", 2, d_n)
    return EncoderParams(d_e, d_n, n, dt, weights)


def _gru_step(x, h, wx, wh, b, hid):
    # gates packed [update | reset | candidate]; reset applied after the
    # hidden matmul (the usual fused-kernel convention)
    gx = ad.add(ad.matmul(x, wx), b)
    gh = ad.matmul(h, wh)
    z = ad.sigmoid(ad.add(ad.slice_axis(gx, 1, 0, hid), ad.slice_axis(gh, 1, 0, hid)))
    r = ad.sigmoid(ad.add(ad.slice_axis(gx, 1, hid, 2 * hid),
                          ad.slice_axis(gh, 1, hid, 2 * hid)))
    c = ad.tanh(ad.add(ad.slice_axis(gx, 1, 2 * hid, 3 * hid),
                       ad.mul(r, ad.slice_axis(gh, 1, 2 * hid, 3 * hid))))
    one = ad.constant(1.0)
    return ad.add(ad.mul(ad.sub(one, z), h), ad.mul(z, c))


def _gru_sequence(inputs, wx, wh, b, hid):
    """Run a cell over (B, T, din) constant inputs; return final hidden (B, hid)."""
    bsz, steps, _ = inputs.shape
    h = ad.constant(np.zeros((bsz, hid)))
    for t in range(steps):
        x = ad.constant(np.ascontiguousarray(inputs[:, t, :]))
        h = _gru_step(x, h, wx, wh, b, hid)
    return h


def _ego_inputs(histories, dt):
    vel = np.diff(histories, axis=1) / dt
    vel = np.concatenate([vel[:, :1], vel], axis=1)          # repeat first step
    rel = histories - histories[:, -1:, :]                   # last point at origin
    return np.concatenate([rel, vel], axis=2)


def _canonical_neighbor_order(rels):
    """Deterministic neighbor ordering so aggregation order never varies."""
    return sorted(range(len(rels)), key=lambda k: rels[k].tobytes())


def _check_histories(histories, neighbor_lists, params):
    histories = np.asarray(histories, dtype=float)
    if histories.ndim != 3 or histories.shape[1] != params.n or histories.shape[2] != 2:
        raise ad.ShapeError(f"encode: histories shape {histories.shape}, "
                            f"expected (B, {params.n}, 2)")
    if len(neighbor_lists) != histories.shape[0]:
        raise ad.ShapeError("encode: one neighbor list per history required")
    return histories


def _neighbor_tracks(histories, neighbor_lists, params):
    """Per history, its neighbour tracks as offsets from the ego track, in
    canonical order."""
    out = []
    for hist, nbrs in zip(histories, neighbor_lists):
        rels = []
        for q in nbrs:
            q = np.asarray(q, dtype=float)
            if q.shape != (params.n, 2):
                raise ad.ShapeError(f"encode: neighbor shape {q.shape}, "
                                    f"expected ({params.n}, 2)")
            rels.append(q - hist)
        out.append([rels[k] for k in _canonical_neighbor_order(rels)])
    return out


def _neighbor_layout(histories, neighbor_lists, params):
    """Stack every neighbour track (canonical order within each history).

    Returns (seqs, mix): seqs (N, n, 2) offsets from the ego track, or None
    without neighbours, and the (B, N) averaging matrix that mean-pools each
    history's neighbour summaries.
    """
    tracks = _neighbor_tracks(histories, neighbor_lists, params)
    flat = [rel for rels in tracks for rel in rels]
    if not flat:
        return None, None
    mix = np.zeros((len(tracks), len(flat)))
    j = 0
    for i, rels in enumerate(tracks):
        if rels:
            mix[i, j:j + len(rels)] = 1.0 / len(rels)
            j += len(rels)
    return np.stack(flat), mix


def encode_batch(histories, neighbor_lists, params):
    """Encode B histories (B, n, 2) with per-sample neighbor lists.

    Returns a differentiable (B, d_e + d_n) node.  Neighbour tracks are
    expressed as per-step offsets from the ego track, so the whole feature
    is unchanged by translating a scene.  This is the training path and the
    reference that :func:`encode_many` reproduces bit for bit per history.
    """
    histories = _check_histories(histories, neighbor_lists, params)
    w = params.weights
    bsz = histories.shape[0]

    h_ego = _gru_sequence(_ego_inputs(histories, params.dt),
                          w["enc.ego.wx"], w["enc.ego.wh"], w["enc.ego.b"], params.d_e)
    seqs, mix = _neighbor_layout(histories, neighbor_lists, params)
    if seqs is not None:
        h_edge = _gru_sequence(seqs, w["enc.edge.wx"], w["enc.edge.wh"],
                               w["enc.edge.b"], params.d_n)
        agg = ad.matmul(ad.constant(mix), h_edge)
    else:
        agg = ad.constant(np.zeros((bsz, params.d_n)))
    return ad.concat([h_ego, agg], axis=1)


# ---------------------------------------------------------------------------
# graph-free forward: the same numpy kernels in the same order, no graph

def _gru_values(inputs, w, prefix, hid):
    """Plain-array twin of :func:`_gru_sequence` (same gate order and ops).

    ``inputs`` is (..., rows, steps, din); leading axes stack independent
    items, and numpy runs each item's (rows, din) product as it would alone.
    """
    wx, wh, b = (w[f"{prefix}.{k}"].value for k in ("wx", "wh", "b"))
    h = np.zeros(inputs.shape[:-2] + (hid,))
    for t in range(inputs.shape[-2]):
        gx = np.ascontiguousarray(inputs[..., t, :]) @ wx
        gx += b
        gh = h @ wh
        z = ad.sigmoid_values(gx[..., :hid] + gh[..., :hid])
        r = ad.sigmoid_values(gx[..., hid:2 * hid] + gh[..., hid:2 * hid])
        c = np.tanh(gx[..., 2 * hid:] + r * gh[..., 2 * hid:])
        h = (1.0 - z) * h + z * c
    return h


def encode_many(histories, neighbor_lists, params):
    """Per-history features for B histories at once: a plain (B, d_e + d_n)
    array, row i equal bit for bit to ``encode(histories[i], ...)``.

    Each history's operands are stacked on a leading axis, so numpy runs the
    same per-history products that a one-history call runs; a 2-D batch
    would run one GEMM across histories and round differently.  Histories
    with k neighbours share one (G, k, n, 2) stack.
    """
    histories = _check_histories(histories, neighbor_lists, params)
    w = params.weights
    h_ego = _gru_values(_ego_inputs(histories, params.dt)[:, None], w,
                        "enc.ego", params.d_e)[:, 0]
    agg = np.zeros((histories.shape[0], params.d_n))
    tracks = _neighbor_tracks(histories, neighbor_lists, params)
    by_count = {}
    for i, rels in enumerate(tracks):
        if rels:
            by_count.setdefault(len(rels), []).append(i)
    for k, rows in by_count.items():
        h = _gru_values(np.stack([np.stack(tracks[i]) for i in rows]), w,
                        "enc.edge", params.d_n)
        agg[rows] = (np.full((len(rows), 1, k), 1.0 / k) @ h)[:, 0]
    return np.concatenate([h_ego, agg], axis=1)


def encode(history, neighbors, params):
    """Feature vector of length d_e + d_n for a single history."""
    history = np.asarray(history, dtype=float)
    if history.ndim != 2:
        raise ad.ShapeError(f"encode: history shape {history.shape}, expected (n, 2)")
    return encode_many(history[None], [list(neighbors)], params)[0]
