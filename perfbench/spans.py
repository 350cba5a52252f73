"""Spans around the public functions of ``weakvalues``, recorded from outside.

``Tracer.install`` wraps every public function of ``hilbert``, ``weakval``,
``reconstruct`` and ``birkhoff`` (their ``__all__``), plus ``cli.main`` and
``BasisPair`` construction, in every ``weakvalues`` module namespace that
binds them, so calls between modules are seen too.  Spans are kept in memory
(name, start, end, parent span, op id), written out at the end, and reduced
to per-function ``calls``, ``total_s`` and ``self_s``; self time excludes the
time covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYER_MODULES = ("hilbert", "weakval", "reconstruct", "birkhoff")

# The functions whose numbers the benchmark reports, and the extra counts.
REPORTED = (
    "cli.main",
    "birkhoff.simplex_grid",
    "birkhoff.sample_degenerate_surface",
    "birkhoff.hypocycloid_boundary",
    "birkhoff.distance",
    "birkhoff.unitary_phase_search",
    "birkhoff.is_unistochastic",
    "birkhoff.permutation_corners",
    "birkhoff.combine",
    "weakval.weak_value_table",
    "weakval.w_operator_set",
    "weakval.expand",
    "weakval.overlap_matrix",
    "reconstruct.reconstruct_full",
    "reconstruct.is_irreversible",
    "hilbert.BasisPair",
    "hilbert.rotated_pair",
    "hilbert.check_hermitian",
)
COUNTS = {
    "birkhoff.sample_degenerate_surface.points": "count",
    "birkhoff.unitary_phase_search.targets": "count",
    "birkhoff.unitary_phase_search.realized": "count",
    "birkhoff.is_unistochastic.unknown": "count",
}


def _count_points(counts, result):
    counts["birkhoff.sample_degenerate_surface.points"] += len(result)


def _count_search(counts, result):
    ok = np.asarray(result[1])
    counts["birkhoff.unitary_phase_search.targets"] += ok.size
    counts["birkhoff.unitary_phase_search.realized"] += int(ok.sum())


def _count_unknown(counts, result):
    counts["birkhoff.is_unistochastic.unknown"] += result.verdict == "unknown"


HOOKS = {
    "birkhoff.sample_degenerate_surface": _count_points,
    "birkhoff.unitary_phase_search": _count_search,
    "birkhoff.is_unistochastic": _count_unknown,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op_of = []
        self.stack = []
        self.op = -1
        self.counts = dict.fromkeys(COUNTS, 0)
        self._undo = []

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        counts = self.counts
        stack, span_name, start, end = self.stack, self.span_name, self.start, self.end
        parent, op_of, clock = self.parent, self.op_of, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, result)
            return result

        return traced

    def install(self):
        """Wrap the functions; call ``uninstall`` to restore them."""
        import weakvalues.cli as cli
        from weakvalues import hilbert

        wrapped = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"weakvalues.{short}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        wrapped[id(cli.main)] = (cli.main, self._wrap("cli.main", cli.main))
        for modname, module in list(sys.modules.items()):
            if modname != "weakvalues" and not modname.startswith("weakvalues."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    setattr(module, attr, wrapped[id(value)][1])
                    self._undo.append((module, attr, value))
        post_init = hilbert.BasisPair.__post_init__
        hilbert.BasisPair.__post_init__ = self._wrap("hilbert.BasisPair", post_init)
        self._undo.append((hilbert.BasisPair, "__post_init__", post_init))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _arrays(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=int)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur, dur - child, np.asarray(self.span_name, dtype=int)

    def self_by_op(self, n_ops):
        """Summed self time of every op's spans."""
        _, self_s, _ = self._arrays()
        out = np.zeros(n_ops)
        ops = np.asarray(self.op_of, dtype=int)
        np.add.at(out, ops[ops >= 0], self_s[ops >= 0])
        return out

    def layer_metrics(self):
        """Per-function calls, total_s and self_s, plus the extra counts."""
        dur, self_s, names = self._arrays()
        k = len(self.names)
        calls = np.bincount(names, minlength=k) if names.size else np.zeros(k)
        total = np.bincount(names, weights=dur, minlength=k) if names.size else np.zeros(k)
        own = np.bincount(names, weights=self_s, minlength=k) if names.size else np.zeros(k)
        metrics = {}
        for name in REPORTED:
            i = self.name_ids.get(name)
            metrics[f"{name}.calls"] = (int(calls[i]) if i is not None else 0, "count")
            metrics[f"{name}.total_s"] = (float(total[i]) if i is not None else 0.0, "s")
            metrics[f"{name}.self_s"] = (float(own[i]) if i is not None else 0.0, "s")
        for name, unit in COUNTS.items():
            metrics[name] = (int(self.counts[name]), unit)
        targets = self.counts["birkhoff.unitary_phase_search.targets"]
        realized = self.counts["birkhoff.unitary_phase_search.realized"]
        metrics["birkhoff.unitary_phase_search.realized_per_target"] = (
            realized / targets if targets else 0.0,
            "ratio",
        )
        return metrics

    def write(self, path):
        """Write every span as CSV: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{self.names[self.span_name[k]]},{self.start[k]!r},{self.end[k]!r},"
                    f"{self.parent[k]},{self.op_of[k]}\n"
                )
