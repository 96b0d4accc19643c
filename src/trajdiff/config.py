"""Pipeline configuration: one flat record of every tunable default.

Both trainers read their settings from it.  Configs load from JSON.
Unknown keys are rejected rather than ignored so a typo never silently
falls back to a default, and every value is range-checked when a Config
is built.
"""

import dataclasses
import json
from dataclasses import dataclass


@dataclass
class Config:
    # trajectory geometry
    n: int = 8                    # observed steps
    m: int = 12                   # predicted steps
    dt: float = 0.4               # seconds per step
    neighbor_radius: float = 5.0  # metres, for imported data

    # history encoder
    d_e: int = 64                 # ego embedding width
    d_n: int = 32                 # neighbor embedding width

    # preference scorer
    scorer_hidden: tuple = (64, 32)
    lam: float = 0.1              # entropy regularization weight
    entropy_grid: int = 20        # KDE evaluation points
    bandwidth: float = 0.05       # KDE bandwidth
    normalize_entropy: bool = True
    score_epochs: int = 30
    score_batch: int = 32
    score_lr: float = 3e-3
    holdout_fraction: float = 0.2
    tie_threshold_speed: float = 0.1    # metres/second
    tie_threshold_turn: float = 0.087   # radians, about 5 degrees

    # diffusion
    T: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.05
    schedule_kind: str = "linear"
    diffusion_epochs: int = 15
    diffusion_batch: int = 64
    diffusion_lr: float = 2e-3
    width: int = 64
    heads: int = 4
    depth: int = 2

    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        # zero epochs is allowed: the run then keeps the initial weights
        int_minimums = {"n": 1, "m": 1, "d_e": 1, "d_n": 1,
                        "entropy_grid": 2, "score_epochs": 0,
                        "score_batch": 1, "T": 1, "diffusion_epochs": 0,
                        "diffusion_batch": 1, "width": 1, "heads": 1,
                        "depth": 1}
        for name, low in int_minimums.items():
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < low:
                raise ValueError(f"config: {name} must be an integer "
                                 f">= {low}, got {v!r}")
        positive_floats = ("dt", "neighbor_radius", "bandwidth", "score_lr",
                           "diffusion_lr", "tie_threshold_speed",
                           "tie_threshold_turn")
        for name in positive_floats:
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
                raise ValueError(f"config: {name} must be positive, "
                                 f"got {v!r}")
        if self.lam < 0:
            raise ValueError(f"config: lam must be >= 0, got {self.lam!r}")
        if not 0 < self.beta_start <= self.beta_end < 1:
            raise ValueError(f"config: need 0 < beta_start <= beta_end < 1, "
                             f"got [{self.beta_start}, {self.beta_end}]")
        if self.schedule_kind not in ("linear", "cosine"):
            raise ValueError(f"config: unknown schedule_kind "
                             f"{self.schedule_kind!r}")
        if not 0 <= self.holdout_fraction < 1:
            raise ValueError(f"config: holdout_fraction must be in [0, 1), "
                             f"got {self.holdout_fraction!r}")
        if self.width % self.heads != 0:
            raise ValueError(f"config: width {self.width} not divisible by "
                             f"heads {self.heads}")
        if (not isinstance(self.scorer_hidden, (tuple, list))
                or not self.scorer_hidden
                or any(not isinstance(h, int) or h < 1
                       for h in self.scorer_hidden)):
            raise ValueError(f"config: scorer_hidden must be a non-empty "
                             f"list of positive integers, "
                             f"got {self.scorer_hidden!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"config: seed must be an integer, "
                             f"got {self.seed!r}")
        return self

    def to_dict(self):
        d = dataclasses.asdict(self)
        d["scorer_hidden"] = list(self.scorer_hidden)
        return d


_FIELDS = {f.name for f in dataclasses.fields(Config)}


def from_dict(values):
    unknown = sorted(set(values) - _FIELDS)
    if unknown:
        raise ValueError(f"config: unknown keys {', '.join(unknown)}")
    merged = dict(values)
    if "scorer_hidden" in merged:
        if not isinstance(merged["scorer_hidden"], (tuple, list)):
            raise ValueError(f"config: scorer_hidden must be a list, "
                             f"got {merged['scorer_hidden']!r}")
        merged["scorer_hidden"] = tuple(merged["scorer_hidden"])
    return Config(**merged)


def load_config(path):
    with open(path) as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config: {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ValueError(f"config: {path} must hold a JSON object")
    return from_dict(values)

