"""Binary model container bundling encoder, scorer, and denoiser.

One file carries everything inference needs, so a denoiser is never
paired with an encoder from a different feature space.  Layout:

    magic "CTDC" | version u32 | meta length u64 | canonical JSON meta
    | entry count u32 | entries

Each entry is a named float64 tensor: name (u16 length + UTF-8), rank
(u8), dims (u32 each), then the little-endian payload.  Entries are
written in sorted name order and the metadata JSON is canonical
(sorted keys, no whitespace), which makes save -> load -> save
byte-identical.
"""

import json
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import diffusion
from .data import DataError, _bad_field
from .diffusion import DenoiserParams, DiffusionSchedule
from .encoder import EncoderParams
from .scoring import ScorerParams

MAGIC = b"CTDC"
VERSION = 1


@dataclass
class Bundle:
    encoder: EncoderParams
    scorer: Optional[ScorerParams]
    denoiser: Optional[DenoiserParams]
    schedule: Optional[DiffusionSchedule]
    constraints: list
    config: dict
    m: int

    @property
    def dt(self):
        return self.encoder.dt


def _meta_dict(bundle):
    meta = {
        "n": bundle.encoder.n,
        "m": bundle.m,
        "dt": bundle.encoder.dt,
        "encoder": {"d_e": bundle.encoder.d_e, "d_n": bundle.encoder.d_n},
        "scorer": None,
        "denoiser": None,
        "schedule": None,
        "constraints": list(bundle.constraints),
        "config": bundle.config,
    }
    if bundle.scorer is not None:
        meta["scorer"] = {"hidden": list(bundle.scorer.hidden)}
    if bundle.denoiser is not None:
        d = bundle.denoiser
        meta["denoiser"] = {
            "n_scores": d.n_scores, "width": d.width, "heads": d.heads,
            "depth": d.depth, "time_dim": d.time_dim, "cond_dim": d.cond_dim,
            "pos_dim": d.pos_dim, "scale": d.scale,
            "max_t": int(d.time_table.shape[0] - 1),
        }
    if bundle.schedule is not None:
        s = bundle.schedule
        meta["schedule"] = {"T": s.T, "beta_start": s.beta_start,
                           "beta_end": s.beta_end, "kind": s.kind}
    return meta


def _all_weights(bundle):
    w = dict(bundle.encoder.weights)
    if bundle.scorer is not None:
        w.update(bundle.scorer.weights)
    if bundle.denoiser is not None:
        w.update(bundle.denoiser.weights)
    return w


def save_bundle(path, bundle):
    meta = json.dumps(_meta_dict(bundle), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    weights = _all_weights(bundle)
    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<Q", len(meta)), meta,
             struct.pack("<I", len(weights))]
    for name in sorted(weights):
        arr = np.ascontiguousarray(weights[name].value, dtype="<f8")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<I", d))
        parts.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


class _Reader:
    def __init__(self, blob, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]


def load_bundle(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")
    version = r.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        meta = json.loads(r.take(r.unpack("<Q")).decode("utf-8"))
    except ValueError as exc:       # bad UTF-8 or bad JSON
        raise DataError(f"{path}: corrupt checkpoint header: {exc}") from None
    count = r.unpack("<I")
    weights = {}
    for _ in range(count):
        name = r.take(r.unpack("<H")).decode("utf-8")
        rank = r.unpack("<B")
        dims = tuple(r.unpack("<I") for _ in range(rank))
        n_items = int(np.prod(dims)) if dims else 1
        payload = r.take(8 * n_items)
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor '{name}' holds NaN or inf")
        weights[name] = ad.parameter(arr)
    if r.pos != len(blob):
        raise DataError(f"{path}: trailing bytes after checkpoint payload")

    try:
        return _bundle(meta, weights)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad checkpoint header: "
                        f"{_bad_field(exc)}") from None


def _bundle(meta, weights):
    def grab(prefix):
        return {k: v for k, v in weights.items() if k.startswith(prefix)}

    enc = EncoderParams(meta["encoder"]["d_e"], meta["encoder"]["d_n"],
                        meta["n"], meta["dt"], grab("enc."))
    scorer = None
    if meta["scorer"] is not None:
        scorer = ScorerParams(enc.feature_dim, meta["m"],
                              tuple(meta["scorer"]["hidden"]), grab("score."))
    denoiser = None
    if meta["denoiser"] is not None:
        d = meta["denoiser"]
        denoiser = DenoiserParams(
            meta["m"], enc.feature_dim, d["n_scores"], d["width"], d["heads"],
            d["depth"], d["time_dim"], d["cond_dim"], d["pos_dim"], d["scale"],
            grab("den."),
            diffusion._sinusoid_table(d["max_t"] + 1, d["time_dim"]),
            diffusion._sinusoid_table(meta["m"], d["pos_dim"]))
    schedule = None
    if meta["schedule"] is not None:
        s = meta["schedule"]
        schedule = diffusion.make_schedule(s["T"], s["beta_start"],
                                           s["beta_end"], s["kind"])
    return Bundle(encoder=enc, scorer=scorer, denoiser=denoiser,
                  schedule=schedule, constraints=list(meta["constraints"]),
                  config=meta["config"], m=meta["m"])
