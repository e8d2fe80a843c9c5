"""Hot integer kernels, JIT-compiled when numba is present.

All kernels work on int64. Values must stay within VAL_LIMIT so that a
pairwise sum can never leave the int64 range; callers fall back to exact
Python-int code paths above that. The dense kernel encodes "undefined"
as the sentinel SENT; any accumulated minimum that still exceeds
DEFINED_MAX after the sweep had no defined pair (defined sums are
bounded by 2*VAL_LIMIT = DEFINED_MAX, sums touching a sentinel are at
least SENT - VAL_LIMIT > DEFINED_MAX).
"""

from __future__ import annotations

import numpy as np

VAL_LIMIT = 2**59
SENT = 2**61
DEFINED_MAX = 2 * VAL_LIMIT

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # numba is optional; the numpy kernels below run without it
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


@njit(cache=True)
def _pairs_minconv(avals, apos, bvals, bpos, nc):
    """Min-plus convolution over the defined entries only.

    avals/bvals are the defined values, apos/bpos their positions.
    Returns (values, defined) arrays of length nc.
    """
    cv = np.full(nc, SENT, dtype=np.int64)
    cd = np.zeros(nc, dtype=np.bool_)
    for i in range(avals.shape[0]):
        ai = avals[i]
        pi = apos[i]
        for j in range(bvals.shape[0]):
            k = pi + bpos[j]
            s = ai + bvals[j]
            if s < cv[k]:
                cv[k] = s
            cd[k] = True
    return cv, cd


@njit(cache=True)
def _dense_minconv(a, b):
    """Min-plus convolution over the full index grid.

    a and b carry SENT at undefined positions. The it-runs-over-every-
    pair structure is the point: cost is Theta(len(a)*len(b)) no matter
    how sparse the defined entries are.
    """
    na = a.shape[0]
    nb = b.shape[0]
    out = np.full(na + nb - 1, 2 * SENT, dtype=np.int64)
    for i in range(na):
        ai = a[i]
        for j in range(nb):
            k = i + j
            s = ai + b[j]
            if s < out[k]:
                out[k] = s
    return out


@njit(cache=True)
def _sparsify_sweep(vals, delta):
    """Left-to-right sparsification sweep over a strictly increasing array:
    keep the newest element, and whenever the last three kept elements fit
    in a window of width delta, drop the middle one."""
    n = vals.shape[0]
    out = np.empty(n, dtype=np.int64)
    m = 0
    for i in range(n):
        out[m] = vals[i]
        m += 1
        if m >= 3 and out[m - 1] - out[m - 3] <= delta:
            out[m - 2] = out[m - 1]
            m -= 1
    return out[:m].copy()


def pairs_minconv(avals, apos, bvals, bpos, nc):
    if _HAVE_NUMBA:
        return _pairs_minconv(avals, apos, bvals, bpos, nc)
    cv = np.full(nc, SENT, dtype=np.int64)
    cd = np.zeros(nc, dtype=np.bool_)
    if avals.size and bvals.size:
        sums = np.add.outer(avals, bvals).ravel()
        ks = np.add.outer(apos, bpos).ravel()
        np.minimum.at(cv, ks, sums)
        cd[ks] = True
    return cv, cd


def dense_minconv(a, b):
    if _HAVE_NUMBA:
        return _dense_minconv(a, b)
    na, nb = a.shape[0], b.shape[0]
    out = np.full(na + nb - 1, 2 * SENT, dtype=np.int64)
    for i in range(na):
        np.minimum(out[i : i + nb], a[i] + b, out=out[i : i + nb])
    return out


def sparsify_sweep(vals, delta):
    if _HAVE_NUMBA:
        return _sparsify_sweep(vals, np.int64(delta))
    out = []
    for v in vals.tolist():
        out.append(v)
        if len(out) >= 3 and out[-1] - out[-3] <= delta:
            del out[-2]
    return np.asarray(out, dtype=np.int64)
