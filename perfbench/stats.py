"""Small statistics the benchmark reports: the tail rule and rank correlation."""

import numpy as np

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile).  With N sorted samples the value is the
    (N - beyond)-th smallest, which has exactly ``beyond`` samples beyond
    it, and its percentile is 100 * (N - beyond) / N.  With N <= beyond no
    percentile qualifies, and the maximum is returned as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail: no samples")
    if n <= beyond:
        return xs[-1], 100.0
    k = n - beyond
    return xs[k - 1], 100.0 * k / n


def _ranks(v):
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size)
    ranks[order] = np.arange(1, v.size + 1)
    # average the ranks of tied values
    for value in np.unique(v):
        tied = v == value
        if tied.sum() > 1:
            ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(x, y):
    """Spearman rank correlation, average ranks for ties; 0 if constant."""
    rx, ry = _ranks(x), _ranks(y)
    dx, dy = rx - rx.mean(), ry - ry.mean()
    denom = float(np.sqrt((dx ** 2).sum() * (dy ** 2).sum()))
    return float((dx * dy).sum() / denom) if denom else 0.0


def centered_by_group(values, groups):
    """Subtract each group's mean, so a between-group offset drops out."""
    values = np.asarray(values, dtype=float)
    groups = np.asarray(groups)
    out = values.copy()
    for g in np.unique(groups):
        sel = groups == g
        out[sel] -= values[sel].mean()
    return out
