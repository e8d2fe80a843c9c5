"""Hot integer kernels, in numpy.

Both min-plus kernels take two sequences as a value array and a defined
mask each, and return the (values, defined) pair of their convolution,
of length len(a) + len(b) - 1, with 0 at undefined positions.

The pairs kernel works on any dtype: ConvEngine runs it on int64 while
every entry lies within VAL_LIMIT, so that no pairwise sum can leave the
int64 range, and on object arrays of Python ints, exactly, above it. The
dense kernel is int64 only and puts the finite sentinel SENT at the
undefined positions; any accumulated minimum that still exceeds DEFINED_MAX
after the sweep had no defined pair (defined sums are bounded by
2*VAL_LIMIT = DEFINED_MAX, sums touching a sentinel are at least
SENT - VAL_LIMIT > DEFINED_MAX). The sparsification sweep only
subtracts non-negative values and takes any int64.
"""

from __future__ import annotations

import numpy as np

VAL_LIMIT = 2**59
SENT = 2**61
DEFINED_MAX = 2 * VAL_LIMIT


def pairs_minconv(av, ad, bv, bd):
    """Min-plus convolution over the defined entries only; the output
    has the values' dtype."""
    apos, bpos = np.flatnonzero(ad), np.flatnonzero(bd)
    nc = av.shape[0] + bv.shape[0] - 1
    cv = np.zeros(nc, dtype=av.dtype)
    cd = np.zeros(nc, dtype=np.bool_)
    if apos.size and bpos.size:
        sums = np.add.outer(av[apos], bv[bpos]).ravel()
        ks = np.add.outer(apos, bpos).ravel()
        cv[ks] = sums  # seed every reached position with one of its sums
        np.minimum.at(cv, ks, sums)
        cd[ks] = True
    return cv, cd


def dense_minconv(av, ad, bv, bd):
    """Min-plus convolution over the full index grid, with SENT at the
    undefined positions. The it-runs-over-every-pair structure is the
    point: cost is Theta(len(a)*len(b)) no matter how sparse the defined
    entries are."""
    a = np.where(ad, av, SENT)
    b = np.where(bd, bv, SENT)
    nb = b.shape[0]
    out = np.full(a.shape[0] + nb - 1, 2 * SENT, dtype=np.int64)
    for i in range(a.shape[0]):
        np.minimum(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    defined = out <= DEFINED_MAX
    return np.where(defined, out, 0), defined


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
