"""Per-layer tracing of sparsesum from outside the package.

Tracer.install() replaces the layer functions listed in LAYERS with
wrappers, wherever a sparsesum module holds a reference to them: module
globals, names imported into other modules, default arguments, and the
methods of minconv.ConvEngine. Each wrapped call records a span
(id, parent id, name, start, end) and adds its counts; uninstall()
puts the originals back. Nothing inside the package changes, so an
untraced solve runs exactly the code a user runs.

A layer that calls itself (recursive_splitting), or two wrapped entry
points of one layer (ConvEngine.__call__ reaching conv_masked), count
once: time and counts go to the outermost span of each name only.
"""

from __future__ import annotations

import sys
import time

import numpy as np

WIDE_T = 2**59  # above this the sumsets leave the int64 kernels


def _minconv_masked(args, kwargs, result):
    _, av, ad, bv, bd = args
    return {
        "minconv.defined_pairs": int(np.count_nonzero(ad)) * int(np.count_nonzero(bd)),
        "minconv.out_len": av.shape[0] + bv.shape[0] - 1,
    }


def _defined_count(seq) -> int:
    # An array-backed ExtSeq is counted from its mask: iterating it would
    # build and cache its tuple of entries, which sends a later negate()
    # down the slow path and so changes what the traced solve runs.
    if getattr(seq, "_entries", ()) is None:
        return int(np.count_nonzero(seq._defined))
    entries = getattr(seq, "entries", seq)
    return len(entries) - entries.count(None)


def _minconv_call(args, kwargs, result):
    _, a, b = args
    return {
        "minconv.defined_pairs": _defined_count(a) * _defined_count(b),
        "minconv.out_len": len(a) + len(b) - 1,
    }


def _unbounded_sumset(args, kwargs, result):
    a1, a2, t, delta = args[:4]
    t, delta = int(t), int(delta)
    return {
        "approxset.unbounded_sumset.grid_entries": 8 * (-(-t // delta)),
        "approxset.unbounded_sumset.input_elems": len(a1) + len(a2),
        "approxset.unbounded_sumset.wide_calls": int(t > WIDE_T),
    }


def _is_zero_set(s) -> bool:
    return len(s) == 1 and s.max() == 0


def _capped_sumset(args, kwargs, result):
    return {"approxset.capped_sumset.zero_operand_calls": int(_is_zero_set(args[0]) or _is_zero_set(args[1]))}


def _sparsify(args, kwargs, result):
    return {"approxset.sparsify.elems_in": len(args[0]),
            "approxset.sparsify.elems_out": len(result)}


def _color_coding(args, kwargs, result):
    rounds = result[1].rounds
    return {
        "subsetsum.color_coding.rounds": len(rounds),
        "subsetsum.color_coding.fold_steps": sum(len(r.steps) for r in rounds),
    }


def _fft(args, kwargs, result):
    return {"partition.fft.len": len(args[0]) + len(args[1]) - 1}


def _reduction(args, kwargs, result):
    return {"hardness.reduced_t_bits": int(result[1]).bit_length()}


# (module, attribute, layer name, count function). An attribute of the
# form "Class.method" is patched on the class.
LAYERS = [
    ("sparsesum.minconv", "ConvEngine.conv_masked", "minconv", _minconv_masked),
    ("sparsesum.minconv", "ConvEngine.__call__", "minconv", _minconv_call),
    ("sparsesum._kernels", "pairs_minconv", "kernels.pairs_minconv", None),
    ("sparsesum._kernels", "sparsify_sweep", "kernels.sparsify_sweep", None),
    ("sparsesum.approxset", "unbounded_sumset", "approxset.unbounded_sumset", _unbounded_sumset),
    ("sparsesum.approxset", "capped_sumset", "approxset.capped_sumset", _capped_sumset),
    ("sparsesum.approxset", "sparsify", "approxset.sparsify", _sparsify),
    ("sparsesum.subsetsum", "color_coding", "subsetsum.color_coding", _color_coding),
    ("sparsesum.subsetsum", "recursive_splitting", "subsetsum.recursive_splitting", None),
    ("sparsesum.subsetsum", "greedy_small", "subsetsum.greedy_small", None),
    ("sparsesum.subsetsum", "reconstruct", "subsetsum.reconstruct", None),
    ("sparsesum.partition", "bottom_half", "partition.bottom_half", None),
    ("sparsesum.partition", "weak_round", "partition.weak_round", None),
    ("sparsesum.partition", "fftconvolve", "partition.fft", _fft),
    ("sparsesum.partition", "reconstruct_partition", "partition.reconstruct_partition", None),
    ("sparsesum.hardness", "knapsack_to_gap_instance", "hardness.knapsack_to_gap_instance", _reduction),
    ("sparsesum.hardness", "gap_subset_sum", "hardness.gap_subset_sum", None),
]

# Every per-layer metric the traced run reports, per traced solve.
# "<layer>.calls" and "<layer>.s" come from the spans; the rest are
# the counts the functions above return, except recursive_splitting's
# nodes and depth_max, which come from span nesting.
METRICS = {
    "minconv.calls": "count",
    "minconv.s": "s",
    "minconv.defined_pairs": "count",
    "minconv.out_len": "count",
    "kernels.pairs_minconv.s": "s",
    "kernels.sparsify_sweep.s": "s",
    "approxset.unbounded_sumset.calls": "count",
    "approxset.unbounded_sumset.s": "s",
    "approxset.unbounded_sumset.grid_entries": "count",
    "approxset.unbounded_sumset.input_elems": "count",
    "approxset.unbounded_sumset.wide_calls": "count",
    "approxset.capped_sumset.calls": "count",
    "approxset.capped_sumset.s": "s",
    "approxset.capped_sumset.zero_operand_calls": "count",
    "approxset.sparsify.calls": "count",
    "approxset.sparsify.s": "s",
    "approxset.sparsify.elems_in": "count",
    "approxset.sparsify.elems_out": "count",
    "subsetsum.color_coding.s": "s",
    "subsetsum.color_coding.rounds": "count",
    "subsetsum.color_coding.fold_steps": "count",
    "subsetsum.recursive_splitting.nodes": "count",
    "subsetsum.recursive_splitting.depth_max": "count",
    "subsetsum.greedy_small.s": "s",
    "subsetsum.reconstruct.s": "s",
    "partition.bottom_half.calls": "count",
    "partition.bottom_half.s": "s",
    "partition.weak_round.s": "s",
    "partition.fft.calls": "count",
    "partition.fft.len": "count",
    "partition.fft.s": "s",
    "partition.reconstruct_partition.s": "s",
    "hardness.knapsack_to_gap_instance.s": "s",
    "hardness.gap_subset_sum.s": "s",
    "hardness.reduced_t_bits": "count",
}


class Tracer:
    """Spans and counts for the solves run between install() and
    uninstall(). Spans stay in memory until write_spans()."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns)
        self.totals: dict[str, float] = {}
        self.depth_max = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def _add(self, key: str, amount) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount

    def span(self, name: str, fn, args, kwargs, count=None):
        nested = self._active.get(name, 0)
        if name == "subsetsum.recursive_splitting":
            self._add(name + ".nodes", 1)
            self.depth_max = max(self.depth_max, nested)
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        self._active[name] = nested + 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._active[name] = nested
            self.spans[span_id] = (span_id, parent, name, start, end)
        if not nested:
            self._add(name + ".calls", 1)
            self._add(name + ".s", (end - start) * 1e-9)
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    self._add(key, amount)
        return result

    def solve(self, name: str, fn, *args, **kwargs):
        """Run one top-level solve under a root span named `name`."""
        return self.span(name, fn, args, kwargs)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, count)

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "sparsesum" or n.startswith("sparsesum."))]
        for mod_name, attr, name, count in LAYERS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrapper(name, orig, count))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrapper(name, orig, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, orig, wrapped)
            for mod in modules:
                for val in list(vars(mod).values()):
                    defaults = getattr(val, "__defaults__", None)
                    if defaults and any(d is orig for d in defaults):
                        new = tuple(wrapped if d is orig else d for d in defaults)
                        self._set(val, "__defaults__", defaults, new)

    def _set(self, owner, key, orig, new) -> None:
        self._undo.append((owner, key, orig))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- results -----------------------------------------------------------

    def metrics(self, solves: int) -> dict[str, float]:
        """Every METRICS entry, as a mean per traced solve (depth_max is a
        maximum). Layers a workload never reaches read 0."""
        out = {}
        for key in METRICS:
            if key == "subsetsum.recursive_splitting.depth_max":
                out[key] = self.depth_max
            else:
                out[key] = self.totals.get(key, 0) / solves
        return out

    def write_spans(self, path) -> None:
        """One line per span: id parent name start_ns end_ns."""
        with open(path, "w") as fh:
            fh.write("id parent name start_ns end_ns\n")
            for span in self.spans:
                fh.write(" ".join(str(f) for f in span) + "\n")
