"""Approximation schemes for SubsetSum and Partition built on exact
(min,+)/(max,+)-convolution over sparse approximations of subset-sum sets."""

from .core import (
    INFINITY,
    ApproxResult,
    InvariantError,
    KnapsackInstance,
    ParseError,
    PartitionInstance,
    SparseSet,
    SubsetSumInstance,
    ValidationError,
    dump_instance,
    is_delta_sparse,
    load_instance,
    subset_sums_bruteforce,
    write_instance,
)
from .minconv import (
    UNDEFINED,
    ExtSeq,
    batch_min_conv,
    max_conv,
    min_conv,
    min_conv_dense,
)
from .approxset import (
    apx_bounds,
    capped_sumset,
    is_approximation,
    merge_union,
    shift_down,
    sparsify,
    unbounded_sumset,
)
from .subsetsum import (
    SchemeParams,
    SolveTrace,
    approximate_subset_sum,
    color_coding,
    greedy_small,
    reconstruct,
    recursive_splitting,
)
from .partition import (
    approximate_partition,
    bottom_half,
    exact_sumset_tree,
    greedy_partition_split,
    reconstruct_partition,
    weak_round,
)
from .hardness import (
    bellman_knapsack,
    gap_subset_sum,
    knapsack_preprocess,
    knapsack_to_gap_instance,
    solve_knapsack_via_gap,
)

__version__ = "0.1.0"
