"""Per-layer tracing by wrapping the package's public functions from outside.

`Tracer` replaces each function named in LAYERS with a wrapper that counts
calls and accumulates total and self wall time, where self time is total
time minus the time of wrapped children. It finds modules through
`sys.modules`, never by attribute access: `shapeassoc.standardize` is the
re-exported *function*, not the module. Modules that bound a callee with
`from ... import` hold their own reference, so every package module's
binding of a wrapped function is rebound too. Leaving the `with` block puts
every original back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

PACKAGE = "shapeassoc"

# (module, qualified name) of every traced function. A dotted name is a
# method, patched on its class.
LAYERS = (
    ("estimates", "central_values"),
    ("estimates", "scale_values"),
    ("standardize", "standardize_values"),
    ("measures", "dissimilarity_values"),
    ("measures", "associate_values"),
    ("measures", "association_matrix"),
    ("cluster", "SimilarityMatrix.__post_init__"),
    ("cluster", "SimilarityMatrix.from_association"),
    ("cluster", "single_linkage"),
    ("cluster", "Dendrogram.to_newick"),
    ("cluster", "contains_cluster"),
    ("series", "load_set"),
    ("datasets", "parse_dataset_text"),
    ("datasets", "format_matrix_csv"),
    ("datasets", "parse_matrix_csv_text"),
    ("bench", "generate_synthetic"),
    ("bench", "run_benchmark"),
    ("axioms", "verify"),
)

LAYER_NAMES = tuple(f"{module}.{qualname}" for module, qualname in LAYERS)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    """Call counts and wall times per layer, for one job at a time."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.stats = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}  # calls, total, self
        self._observers = {
            "standardize.standardize_values": self._see_standardization,
            "measures.association_matrix": self._see_matrix,
        }
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = (0, 0.0, 0.0)
        self._open: list[float] = []  # child time of each open span
        self._hidden = 0.0  # time spent in observers, kept out of every span
        self._standardized: set = set()
        self._pairs = 0

    # -- derived counters --------------------------------------------------

    def _see_standardization(self, spec, v, *args, **kwargs) -> None:
        # validated measures use an odd F, so F(-y) = -F(y) and y, -y count
        # as one standardization: key on |v|
        self._standardized.add((spec, hash(np.abs(v).tobytes())))

    def _see_matrix(self, spec, data, *args, **kwargs) -> None:
        k = len(data)
        self._pairs += k * (k - 1) // 2

    # -- install and restore -----------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        observe = self._observers.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                h0 = clock()
                observe(*args, **kwargs)
                tracer._hidden += clock() - h0
            hidden0 = tracer._hidden
            tracer._open.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0 - (tracer._hidden - hidden0)
                child = tracer._open.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if tracer._open:
                    tracer._open[-1] += elapsed

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            modules = _package_modules()
            for (module_name, qualname), name in zip(LAYERS, LAYER_NAMES):
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, attr, self._wrap(name, raw))
                    continue
                original = module.__dict__[qualname]
                wrapper = self._wrap(name, original)
                for consumer in modules:
                    for attr, value in list(vars(consumer).items()):
                        if value is original:
                            self._set(consumer, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer counts and times of the job since the last reset."""
        out: dict[str, float] = {}
        for name, (calls, total, self_time) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_time
            out[f"{name}.total_s"] = total
        std_calls = self.stats["standardize.standardize_values"][0]
        out["standardize.reuse_ratio"] = (
            len(self._standardized) / std_calls if std_calls else 0.0
        )
        assoc_calls = self.stats["measures.associate_values"][0]
        out["measures.calls_per_pair"] = assoc_calls / self._pairs if self._pairs else 0.0
        return out
