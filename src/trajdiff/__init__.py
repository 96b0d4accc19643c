"""Constraint-steerable trajectory prediction.

A pairwise-preference scorer maps (history, future) pairs to a conformity
score in (0,1); a conditional denoising diffusion model generates future
trajectories steered by that score.  Pure numpy, desk scale.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS splits the weight
# gradient's reduction differently under several threads, so checkpoints
# would depend on the thread count.  This overrides the caller's setting,
# and it does not reach a process that imported numpy before trajdiff.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
