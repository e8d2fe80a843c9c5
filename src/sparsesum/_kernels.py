"""Hot integer kernels, in numpy.

The pairs kernel works on any dtype: ConvEngine runs it on int64 while
every entry lies within VAL_LIMIT, so that no pairwise sum can leave the
int64 range, and on object arrays of Python ints, exactly, above it. The
sparsification sweep only subtracts non-negative values and takes any
int64. The dense kernel is int64 only and encodes "undefined" as the
sentinel SENT; any accumulated minimum that still exceeds DEFINED_MAX
after the sweep had no defined pair (defined sums are bounded by
2*VAL_LIMIT = DEFINED_MAX, sums touching a sentinel are at least
SENT - VAL_LIMIT > DEFINED_MAX).
"""

from __future__ import annotations

import numpy as np

VAL_LIMIT = 2**59
SENT = 2**61
DEFINED_MAX = 2 * VAL_LIMIT


def pairs_minconv(avals, apos, bvals, bpos, nc):
    """Min-plus convolution over the defined entries only.

    avals/bvals are the defined values, apos/bpos their positions; the
    output has their dtype. Returns (values, defined) arrays of length
    nc, with 0 at undefined positions.
    """
    cv = np.zeros(nc, dtype=avals.dtype)
    cd = np.zeros(nc, dtype=np.bool_)
    if avals.size and bvals.size:
        sums = np.add.outer(avals, bvals).ravel()
        ks = np.add.outer(apos, bpos).ravel()
        cv[ks] = sums  # seed every reached position with one of its sums
        np.minimum.at(cv, ks, sums)
        cd[ks] = True
    return cv, cd


def dense_minconv(a, b):
    """Min-plus convolution over the full index grid.

    a and b carry SENT at undefined positions. The it-runs-over-every-
    pair structure is the point: cost is Theta(len(a)*len(b)) no matter
    how sparse the defined entries are.
    """
    na, nb = a.shape[0], b.shape[0]
    out = np.full(na + nb - 1, 2 * SENT, dtype=np.int64)
    for i in range(na):
        np.minimum(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    return out


def sparsify_sweep(vals, delta):
    """Left-to-right sparsification sweep over a strictly increasing array:
    keep the newest element, and whenever the last three kept elements fit
    in a window of width delta, drop the middle one."""
    out = []
    for v in vals.tolist():
        out.append(v)
        if len(out) >= 3 and out[-1] - out[-3] <= delta:
            del out[-2]
    return np.asarray(out, dtype=np.int64)
