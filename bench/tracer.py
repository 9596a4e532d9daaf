"""Span tracing of maglab's layers, wrapped from outside the package.

`Tracer.install` replaces every public function of each layer module, at
every name that binds it, with a wrapper that records a span: name, start,
end, parent span and operation id.  The binding sites are the module
globals, the `from .magnitude import weighting` style copies held by other
modules, and the package's re-exports (where `maglab.magnitude` is the
function, not the module).  `uninstall` puts every original back.  Spans
stay in memory until `dump` writes them out.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import inspect
import json
import time
import weakref

LAYERS = ("metric_core", "magnitude", "diversity", "negative_type", "analysis", "cli")

# Per-layer statistics reported for each traced function.
REPORTED = {
    "metric_core.validate_metric": ("calls", "self_s"),
    "metric_core.load_distance_csv": ("self_s",),
    "metric_core.generate": ("calls", "self_s"),
    "magnitude.similarity": ("calls", "self_s"),
    "magnitude.spectrum_diagnostics": ("calls", "self_s"),
    "magnitude.weighting": ("calls", "self_s"),
    "magnitude.scale_sweep": ("self_s",),
    "diversity.max_diversity": ("calls", "self_s"),
    "negative_type.stability_scan": ("calls", "self_s"),
    "negative_type.negative_type_test": ("calls", "self_s"),
    "analysis.gamma_hat_1d": ("calls", "self_s"),
    "analysis.fourier_upper_bound_1d": ("calls", "self_s"),
    "analysis.approx_magnitude": ("self_s",),
    "analysis.witness_search": ("self_s",),
    "cli.run": ("self_s",),
}

# Interior points of the mollifier bump grid in fourier_upper_bound_1d.
BUMP_POINTS = 4095


def layer_modules() -> dict:
    # importlib, because the package attribute `maglab.magnitude` is a function
    return {name: importlib.import_module(f"maglab.{name}") for name in LAYERS}


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with '_'."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.op_id = -1
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (namespace, attribute, original)
        self._spaces = {}  # id -> weakref of each space given a spectrum

    def install(self) -> None:
        modules = layer_modules()
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for site in (importlib.import_module("maglab"), *modules.values()):
            for attr, obj in list(vars(site).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((site, attr, obj))
                    setattr(site, attr, entry[1])

    def uninstall(self) -> None:
        while self._patches:
            site, attr, original = self._patches.pop()
            setattr(site, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counted = name in _COUNTED
        signature = inspect.signature(fn)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                self._count(name, signature, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _count(self, name, signature, args, kwargs, result) -> None:
        """Work counts at the wrapped boundary; sizes come from the arguments.

        A parameter that a later version renames is skipped, so its count
        reads 0 rather than breaking the traced run.
        """
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        c = self.counts
        if name == "metric_core.validate_metric" and "dist" in a:
            c["validate_triples"] += len(a["dist"]) ** 3
        elif name == "magnitude.similarity" and "space" in a:
            c["similarity_entries"] += len(a["space"]) ** 2
        elif name == "magnitude.spectrum_diagnostics" and "space" in a:
            key = id(a["space"])
            if key not in self._spaces:
                self._spaces[key] = weakref.ref(
                    a["space"], lambda _ref, key=key: self._spaces.pop(key, None)
                )
                c["spectrum_spaces"] += 1
        elif name == "diversity.max_diversity":
            c["fw_iterations"] += getattr(result, "iterations", 0)
            c["fw_converged"] += bool(getattr(result, "converged", False))
        elif name == "analysis.gamma_hat_1d" and "N" in a and "n_omega" in a:
            c["cosine_kernel_evals"] += (a["N"] + 1) * a["n_omega"]
        elif name == "analysis.fourier_upper_bound_1d" and "n_omega" in a:
            c["cosine_kernel_evals"] += BUMP_POINTS * a["n_omega"]

    def function_stats(self) -> dict:
        """name -> (calls, self seconds); self time excludes wrapped children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = collections.defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            stats[name][0] += 1
            stats[name][1] += end - start - inner
        return stats

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced pass: name -> (value, unit)."""
        stats = self.function_stats()
        out = {}
        for name, fields in REPORTED.items():
            calls, self_s = stats.get(name, (0, 0.0))
            if "calls" in fields:
                out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        c = self.counts
        spectra = stats.get("magnitude.spectrum_diagnostics", (0, 0.0))[0]
        fw_calls = stats.get("diversity.max_diversity", (0, 0.0))[0]
        out["metric_core.validate_metric.triples"] = (c["validate_triples"], "count.computed")
        out["magnitude.similarity.entries"] = (c["similarity_entries"], "count.computed")
        out["magnitude.spectrum_per_scale"] = (
            spectra / c["spectrum_spaces"] if c["spectrum_spaces"] else 0.0, "ratio"
        )
        out["diversity.iterations"] = (c["fw_iterations"], "count")
        out["diversity.converged_ratio"] = (
            c["fw_converged"] / fw_calls if fw_calls else 0.0, "ratio"
        )
        out["analysis.cosine_kernel_evals"] = (c["cosine_kernel_evals"], "count.computed")
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent, op] for n, start, end, parent, op in self.spans]
        payload = {"fields": ["name", "start", "end", "parent", "op"], "names": names, "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


_COUNTED = {
    "metric_core.validate_metric",
    "magnitude.similarity",
    "magnitude.spectrum_diagnostics",
    "diversity.max_diversity",
    "analysis.gamma_hat_1d",
    "analysis.fourier_upper_bound_1d",
}
