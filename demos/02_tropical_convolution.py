"""Tropical ((min,+) and (max,+)) convolution with undefined entries.

C[k] = min over i+j=k of A[i] + B[j], taken over the pairs where both
entries are defined. UNDEFINED is a real tag (not a big number): it is
the neutral element for min *and* max, which no finite stand-in can be.

The packing construction at the end solves many convolution instances
with a single engine call: block r is shifted by r^2 * 2M, and the
shifts are spread far enough apart that blocks cannot interact.
"""

import numpy as np

from sparsesum import (
    ExtSeq,
    UNDEFINED,
    batch_min_conv,
    max_conv,
    min_conv,
    min_conv_dense,
)

A = ExtSeq([1, UNDEFINED, 4])
B = ExtSeq([2, 5])
print(f"A = {A}")
print(f"B = {B}")
print(f"min_conv(A, B) = {min_conv(A, B)}")
print(f"max_conv(A, B) = {max_conv(A, B)}")

# the dense engine grinds through every index pair; same answers
assert min_conv_dense(A, B) == min_conv(A, B)
print("dense engine agrees with the pair-skipping engine")

# many instances, one call
rng = np.random.default_rng(3)
instances = []
for _ in range(4):
    n = int(rng.integers(2, 5))
    mk = lambda: ExtSeq([int(v) for v in rng.integers(0, 50, size=n)])
    instances.append((mk(), mk()))
batched = batch_min_conv(instances)
print("\npacked batch vs individual calls:")
for r, (a, b) in enumerate(instances):
    direct = min_conv(a, b)
    mark = "ok" if direct == batched[r] else "MISMATCH"
    print(f"  instance {r}: {batched[r]}  [{mark}]")
