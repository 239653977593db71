"""Layer spans: timing wrappers installed into svyest's module namespaces.

svyest modules call each other through names bound at import time
(``montecarlo.draw``, ``trees.best_split``, ...).  ``Tracer.install`` rebinds
those names to wrappers for as long as the tracer is open, so nothing under
``src/`` changes.  A wrapper over a ``fit_*`` function also wraps the
``predict`` of the predictor it returns, so population prediction is its own
span.

Spans nest: a span's self time is its duration minus the time of the spans
opened inside it (``fit_pcr`` -> ``fit_greg``, ``fit_forest`` ->
``best_split``, forest predict -> ``predict_tree``).  ``top_s`` is the time
covered by outermost spans, so a sweep's wall minus ``top_s`` is the
harness's own time.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import replace

#: (svyest module whose name is rebound, name, span, span of the returned
#: predictor's ``predict``, diagnostics key summed into ``<span>.<key>``).
LAYERS = (
    ("montecarlo", "generate_auxiliary", "population.generate", None, None),
    ("montecarlo", "generate_survey_variable", "population.generate", None, None),
    ("montecarlo", "assign_strata_by_quantile", "population.generate", None, None),
    ("montecarlo", "draw", "sampling.draw", None, None),
    ("montecarlo", "substream", "sampling.substream", None, None),
    ("montecarlo", "fit_greg", "estimators.fit_greg", "estimators.greg_predict", None),
    ("baselines", "fit_greg", "estimators.fit_greg", "estimators.greg_predict", None),
    ("montecarlo", "cross_validate", "penalized.cross_validate", None, None),
    ("montecarlo", "fit_ridge", "penalized.fit_ridge", "penalized.predict", None),
    ("montecarlo", "fit_elastic_net", "penalized.fit_elastic_net", "penalized.predict", "sweeps"),
    ("montecarlo", "fit_forest", "trees.fit_forest", "trees.forest_predict", None),
    ("trees", "best_split", "trees.best_split", None, None),
    ("trees", "predict_tree", "trees.predict_tree", None, None),
    ("montecarlo", "fit_knn", "baselines.fit_knn", "baselines.knn_predict", None),
    ("montecarlo", "fit_pcr", "baselines.fit_pcr", "baselines.pcr_predict", None),
)

SPANS = tuple(dict.fromkeys(span for layer in LAYERS for span in (layer[2], layer[3]) if span))


class Tracer:
    """Accumulates self time and calls per span while installed.

    With ``capture`` set, every wrapped call's span, arguments, result and
    duration are kept in ``captured``, in call order.
    """

    def __init__(self, layers=LAYERS, *, capture: bool = False):
        self.layers = layers
        self.capture = capture
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.captured: list[tuple[str, tuple, dict, object, float]] = []
        self.top_s = 0.0
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, predict_span=None, count_key=None):
        def timed(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._open.pop()
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.top_s += elapsed
            if count_key is not None:
                self.counts[f"{name}.{count_key}"] += float(result.diagnostics[count_key])
            if predict_span is not None:
                result = replace(result, predict=self.span(predict_span, result.predict))
            if self.capture:
                self.captured.append((name, args, kwargs, result, elapsed))
            return result

        return timed

    def install(self) -> "Tracer":
        for module_name, attr, name, predict_span, count_key in self.layers:
            module = importlib.import_module(f"svyest.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, predict_span, count_key))
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
