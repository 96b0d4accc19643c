"""Host-speed reference, timed between the program's subcommand calls.

This machine's speed drifts by tens of percent from minute to minute,
because other tenants share its cores.  A fixed reference computation,
timed after every subcommand call, tracks that drift.  Timings are
reported scaled by ``NOMINAL_S / median(reference times)``: the time a
call would take on the host at the speed where the reference takes
``NOMINAL_S``.  The factor of every run is printed with its result.

The reference mixes the program's kinds of work: B=400-sized GEMMs with
an elementwise pass, small-array numpy calls, and per-op Python dispatch
on tiny arrays.  It writes into buffers allocated once at import, so it
does not change the heap the program allocates from.
"""

import statistics
import time

import numpy as np

# reference time on a 2-core Xeon (numpy 2.4.6, OpenBLAS 0.3.31 at one
# thread) in a quiet period; a constant, so factors compare across runs
# and commits
NOMINAL_S = 0.04

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((4800, 64))
_W1 = _rng.standard_normal((64, 256)) / 8.0
_W2 = _rng.standard_normal((256, 64)) / 16.0
_H = np.empty((4800, 256))
_O = np.empty((4800, 64))
_S = _rng.standard_normal((20, 12, 64))
_X = np.empty_like(_S)
_V = _rng.standard_normal((1, 64))


class _Leaf:
    __slots__ = ("value", "parents", "fn")

    def __init__(self, value, parents, fn):
        self.value, self.parents, self.fn = value, parents, fn


def _reference_pass():
    # large-array work, as in a B=400 denoiser forward
    for _ in range(2):
        np.matmul(_A, _W1, out=_H)
        np.maximum(_H, 0.0, out=_H)
        np.matmul(_H, _W2, out=_O)
        _O.sum()
    # small-array numpy calls, as in a B=20 forward
    for _ in range(400):
        np.multiply(_S, 1.0001, out=_X)
        np.add(_X, _S, out=_X)
        _X.sum()
    # per-op Python dispatch with tiny arrays and graph nodes, as in
    # one-history encoding and training graphs
    node = _Leaf(_V, (), None)
    for _ in range(2000):
        node = _Leaf(node.value * 0.999 + _V, (node,), lambda g: g)
        if not np.isfinite(node.value.sum()):
            raise ArithmeticError("reference diverged")
        node.parents = ()


class HostSpeed:
    """Reference times taken during one process's measurements."""

    def __init__(self):
        self.samples = []

    def probe(self, passes=3):
        """Time ``passes`` reference passes after one untimed pass.

        The untimed pass loads the reference's own code and buffers into
        cache, so the timed ones do not depend on what the program touched
        before.
        """
        _reference_pass()
        for _ in range(passes):
            t0 = time.perf_counter()
            _reference_pass()
            self.samples.append(time.perf_counter() - t0)

    def factor(self):
        """Scale for this process's timings: NOMINAL_S / median reference."""
        return NOMINAL_S / statistics.median(self.samples)
