"""Span tracing of trajdiff's public functions, installed from outside.

A ``Tracer`` replaces chosen module attributes (and ``Adam.step``) with
wrappers for the duration of a ``with`` block, so the program itself is
not edited.  Each wrapped call records one span: the function name, start
and end (``time.perf_counter``), the enclosing span and the operation id
the harness set before the call.  Spans stay in memory in flat arrays and
are written out once, by ``save``, when the run ends.

Because the wrappers replace module attributes, calls that go through a
module (``ad.matmul(...)``, ``diffusion.denoise_batch(...)``) and calls
inside the defining module (which look the name up in the same module
dictionary) are both seen.  A function imported by value elsewhere would
not be; trajdiff has none of those for the traced names.
"""

import functools
import math
import time
from array import array
from collections import defaultdict

import numpy as np

# Every differentiable forward op of trajdiff.autodiff; summed as
# ``autodiff.ops``.
AUTODIFF_OPS = ("add", "sub", "mul", "div", "matmul", "transpose_last2",
                "reshape", "concat", "slice_axis", "gather_rows",
                "broadcast_rows", "reduce_sum", "reduce_mean", "square",
                "sqrt", "exp", "log", "tanh", "sigmoid", "leaky_relu",
                "softmax")

# (module, attribute) pairs the tracer wraps; the span name is
# "<module>.<attribute>".
TRACED = {
    "autodiff": AUTODIFF_OPS + ("backward",),
    "encoder": ("encode", "encode_batch"),
    "scoring": ("score", "scorer_loss", "train_scorer", "score_corpus"),
    "diffusion": ("denoise_batch", "sample_batch", "predict_best_of",
                  "train_diffusion"),
    "evaluate": ("evaluate_trajectories", "min_ade_fde"),
    "data": ("load_corpus", "make_pairs", "load_pairs"),
    "checkpoint": ("load_bundle", "save_bundle"),
    "cli": ("main",),
}
ADAM_STEP = "autodiff.adam_step"


def denoiser_gflop(batch, params):
    """GEMM work of one ``denoise_batch`` forward, in GFLOP (2 per MAC).

    Counted from the shapes the denoiser multiplies: the condition
    projection, the token projection, per block the q/k/v/o and two
    feed-forward projections, the per-head attention products and the
    layer-norm broadcasts, and the output head.  This is computed from
    shapes, not measured.
    """
    b, m, w = batch, params.m, params.width
    tokens = b * m
    token_dim = 2 + params.time_dim + params.cond_dim + params.n_scores \
        + params.pos_dim
    macs = b * (params.feature_dim + params.n_scores) * params.cond_dim
    macs += tokens * token_dim * w
    per_block = 4 * tokens * w * w            # q, k, v, o
    per_block += 2 * tokens * w * 4 * w       # f1, f2
    per_block += 2 * b * m * m * w            # q.k^T and att.v over heads
    per_block += 2 * 2 * tokens * w           # two layer norms, 2 broadcasts
    macs += params.depth * per_block
    macs += 2 * tokens * w + tokens * w * 2   # final layer norm and head
    return 2.0 * macs / 1e9


def _rows_first_arg(args, kwargs):
    return int(np.shape(args[0])[0])


# Extra counters recorded at call time: name -> {counter: fn(args, kwargs)}.
COUNTERS = {
    "diffusion.denoise_batch": {
        "rows": _rows_first_arg,
        "gflop": lambda a, k: denoiser_gflop(int(np.shape(a[0])[0]), a[3]),
    },
    "encoder.encode_batch": {"rows": _rows_first_arg},
}


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, modules):
        """``modules`` maps the short names in ``TRACED`` to module objects."""
        self._modules = modules
        self.names = []
        self._name_index = {}
        self.name_idx = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counters = defaultdict(float)
        self.op_id = -1
        self._stack = []
        self._saved = []

    # -- installation -----------------------------------------------------

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, fn, name):
        idx = self._intern(name)
        counters = COUNTERS.get(name, {})
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.starts)
            tracer.name_idx.append(idx)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.ops.append(tracer.op_id)
            tracer.starts.append(math.nan)
            tracer.ends.append(math.nan)
            for key, count in counters.items():
                tracer.counters[f"{name}.{key}"] += count(args, kwargs)
            tracer._stack.append(i)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.ends[i] = time.perf_counter()
                tracer.starts[i] = t0
                tracer._stack.pop()
        return traced

    def _replace(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def __enter__(self):
        for short, attrs in TRACED.items():
            for attr in attrs:
                self._replace(self._modules[short], attr, f"{short}.{attr}")
        self._replace(self._modules["autodiff"].Adam, "step", ADAM_STEP)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def set_op(self, op_id):
        """Tag the spans that follow with this operation id."""
        self.op_id = op_id

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: (name index, start, end, parent, op id)."""
        return (np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy(),
                np.frombuffer(self.parents, dtype=np.int64).copy(),
                np.frombuffer(self.ops, dtype=np.int64).copy())

    def save(self, path):
        name_idx, starts, ends, parents, ops = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name_idx,
                            start=starts, end=ends, parent=parents, op=ops)

    def layer_stats(self):
        """Per-name calls, busy seconds and self seconds, plus counters.

        Returns a dict keyed "<module>.<function>.<counter>".
        """
        name_idx, starts, ends, parents, _ = self.arrays()
        own = self_times(starts, ends, parents)
        out = {}
        for i, name in enumerate(self.names):
            sel = name_idx == i
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.busy_s"] = union_length(starts[sel], ends[sel])
            out[f"{name}.self_s"] = float(own[sel].sum())
        ops = np.isin(name_idx, [self._name_index[f"autodiff.{op}"]
                                 for op in AUTODIFF_OPS
                                 if f"autodiff.{op}" in self._name_index])
        out["autodiff.ops.calls"] = int(ops.sum())
        out["autodiff.ops.busy_s"] = union_length(starts[ops], ends[ops])
        out.update(self.counters)
        return out


# Per-layer metrics a traced run reports, in order, with their units.
_REPORTED_OPS = ("matmul", "add", "sub", "mul", "div", "leaky_relu",
                 "softmax", "slice_axis", "concat", "reduce_mean", "square",
                 "sigmoid", "tanh")
LAYER_METRICS = (
    [f"diffusion.denoise_batch.{c}"
     for c in ("calls", "rows", "busy_s", "self_s", "gflop")]
    + [f"diffusion.{f}.{c}" for f in ("sample_batch", "predict_best_of")
       for c in ("calls", "busy_s", "self_s")]
    + ["diffusion.train_diffusion.busy_s", "diffusion.train_diffusion.self_s",
       "autodiff.ops.calls", "autodiff.ops.busy_s"]
    + [f"autodiff.{op}.{c}" for op in _REPORTED_OPS + ("backward", "adam_step")
       for c in ("calls", "busy_s")]
    + ["encoder.encode.calls", "encoder.encode.busy_s"]
    + [f"encoder.encode_batch.{c}" for c in ("calls", "rows", "busy_s", "self_s")]
    + [f"scoring.{f}.{c}" for f in ("score", "scorer_loss")
       for c in ("calls", "busy_s")]
    + [f"scoring.{f}.{c}" for f in ("train_scorer", "score_corpus")
       for c in ("busy_s", "self_s")]
    + ["evaluate.evaluate_trajectories.busy_s",
       "evaluate.evaluate_trajectories.self_s",
       "evaluate.min_ade_fde.calls", "evaluate.min_ade_fde.busy_s",
       "data.load_corpus.calls", "data.load_corpus.busy_s",
       "data.make_pairs.busy_s", "data.load_pairs.busy_s"]
    + [f"checkpoint.{f}.{c}" for f in ("load_bundle", "save_bundle")
       for c in ("calls", "busy_s")]
    + ["cli.main.calls", "cli.main.busy_s", "cli.main.self_s"]
)
HARNESS_METRICS = ("bench.untraced.wall_s", "bench.traced.wall_s",
                   "bench.trace.overhead_s", "bench.trace.overhead_share")


def _unit(name):
    counter = name.rsplit(".", 1)[1]
    if counter in ("calls", "rows"):
        return "count"
    if counter == "gflop":
        return "GFLOP"
    return "fraction" if counter.endswith("share") else "s"


LAYER_UNITS = {name: _unit(name) for name in LAYER_METRICS + list(HARNESS_METRICS)}


def layer_metrics(layer_stats):
    """The reported per-layer metrics; a function never called reads 0."""
    return {name: float(layer_stats.get(name, 0.0)) for name in LAYER_METRICS}


def union_length(starts, ends):
    """Total length of the union of the intervals [starts[i], ends[i]]."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.size == 0:
        return 0.0
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.clip(e - np.maximum(s, prev), 0.0, None).sum())


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct children cover.

    Child intervals are clipped to the parent's interval and merged before
    they are subtracted, so overlapping children are not counted twice.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents)
    own = ends - starts
    children = defaultdict(list)
    for i, p in enumerate(parents.tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        cs = np.clip(starts[kids], lo, hi)
        ce = np.clip(ends[kids], lo, hi)
        own[p] -= union_length(cs, ce)
    return own
