"""Replicated-sampling experiments: relative bias and relative efficiency.

Every replicate r draws its sample from the counter-based stream
``(master_seed, r)``, so samples never depend on the estimator roster or the
noise-column level, and paired comparisons across levels share samples
bit-for-bit.  Methods that need randomness (forests, cross-validation folds)
get their own stream keyed by the method name.
"""
from __future__ import annotations

import concurrent.futures
import csv
import ctypes
import json
import math
import numbers
import os
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .baselines import PcrSpec, fit_knn, fit_pcr
from .errors import LoadError, ParameterError, RunError, SvyestError
from .estimators import FittedPredictor, fit_greg
from .penalized import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    PenaltySpec,
    cross_validate,
    fit_elastic_net,
    fit_ridge,
)
from .population import (
    STRUCTURAL_COLUMNS,
    ColumnSchema,
    DgpModel,
    FinitePopulation,
    assign_strata_by_quantile,
    generate_auxiliary,
    generate_survey_variable,
    load_population,
)
from .sampling import DrawnSample, SamplingDesign, Srswor, StratifiedSrs, draw, substream
from .trees import ForestSpec, fit_forest, grow_tree, tree_predictor

REPORT_HEADER = ("method", "d_noise", "rb_percent", "re_percent", "mse", "r", "seed")

#: A method failing more than this share of replicates fails the whole run.
FAILURE_SHARE_LIMIT = 0.01

HT_METHOD = "ht"

#: Signature of a per-replicate estimator: (sample, x on sample, y on sample,
#: x over the population, method rng) -> estimated total.
Fitter = Callable[[DrawnSample, np.ndarray, np.ndarray, np.ndarray, np.random.Generator], float]


@dataclass(frozen=True)
class EstimatorSpec:
    """One roster entry: a registered method plus its hyperparameters."""

    method: str
    name: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.method


@dataclass(frozen=True)
class McRow:
    method: str
    d_noise: int
    rb_percent: float
    re_percent: float
    mse: float
    r: int
    seed: int


@dataclass(frozen=True)
class McReport:
    """Aggregated rows plus the optional per-replicate estimate log."""

    rows: tuple[McRow, ...]
    estimates: Mapping[tuple[str, int], np.ndarray] | None = None
    failures: Mapping[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class McScenario:
    """A complete experiment description; immutable and process-safe.

    ``d_noise_levels`` lists how many extra auxiliary columns join the
    model's structural columns in the working matrix; ``run_scenario``
    handles one level, ``sweep_dnoise`` stacks them.
    """

    population: FinitePopulation
    design: SamplingDesign
    estimators: tuple[EstimatorSpec, ...]
    d_noise_levels: tuple[int, ...]
    replicates: int
    master_seed: int
    model: DgpModel | None = None
    structural_columns: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "d_noise_levels", tuple(int(v) for v in self.d_noise_levels))
        if self.replicates < 1:
            raise ParameterError("need at least one replicate")
        if self.master_seed < 0:
            raise ParameterError("master_seed must be nonnegative")
        if self.population.y is None:
            raise ParameterError("scenario population has no survey variable")
        if not self.estimators:
            raise ParameterError("estimator roster is empty")
        labels = [spec.label for spec in self.estimators]
        if len(set(labels)) != len(labels):
            raise ParameterError("estimator labels must be unique")
        for spec in self.estimators:
            if spec.method not in METHODS:
                raise ParameterError(f"no such method {spec.method!r}")
            _check_params(spec)
        structural = self.structural()
        budget = self.population.n_aux - len(structural)
        if not self.d_noise_levels:
            raise ParameterError("need at least one d_noise level")
        for level in self.d_noise_levels:
            if level < 0 or level > budget:
                raise ParameterError(
                    f"d_noise level {level} outside [0, {budget}] for this population"
                )

    def structural(self) -> tuple[int, ...]:
        if self.structural_columns is not None:
            return tuple(self.structural_columns)
        if self.model is not None:
            return STRUCTURAL_COLUMNS[self.model.variant]
        raise ParameterError("give structural_columns when no model is attached")

    def working_columns(self, level: int) -> tuple[int, ...]:
        structural = self.structural()
        extras = [j for j in range(self.population.n_aux) if j not in structural]
        if level > len(extras):
            raise ParameterError(f"d_noise level {level} exceeds available columns")
        return structural + tuple(extras[:level])


def _ma_total(predictor: FittedPredictor, sample: DrawnSample, ys: np.ndarray, pop_xw: np.ndarray) -> float:
    fitted = np.asarray(predictor.predict(pop_xw), dtype=float)
    if not np.all(np.isfinite(fitted)):
        raise RunError(f"{predictor.method} produced non-finite predictions")
    return float(fitted.sum() + np.sum((ys - fitted[sample.indices]) * sample.weights))


_HT_KEYS: frozenset[str] = frozenset()


def _build_ht(params: Mapping) -> Fitter:
    def fit(sample, xs, ys, pop_xw, rng):
        return float(np.sum(ys * sample.weights))

    return fit


_GREG_KEYS = frozenset({"intercept"})


def _build_greg(params: Mapping) -> Fitter:
    intercept = bool(params.get("intercept", True))

    def fit(sample, xs, ys, pop_xw, rng):
        return _ma_total(fit_greg(sample, xs, ys, intercept=intercept), sample, ys, pop_xw)

    return fit


_PENALIZED_KEYS = frozenset(
    {
        "lam",
        "alpha",
        "cv_folds",
        "cv_lambdas",
        "lambda_min_ratio",
        "cv_weighted_loss",
        "tol",
        "cv_tol",
        "cv_patience",
        "max_iter",
    }
)


def _check_penalty(spec: EstimatorSpec) -> None:
    """``lam`` is "cv" or a finite nonnegative number; ``alpha`` is "cv" or in [0, 1]."""
    lam = spec.params.get("lam", "cv")
    if lam != "cv" and not (_is_real(lam) and math.isfinite(lam) and lam >= 0):
        raise ParameterError(
            f"estimator {spec.label!r}: 'lam' must be \"cv\" or a finite nonnegative number, not {lam!r}"
        )
    if "alpha" not in spec.params:
        return
    alpha = spec.params["alpha"]
    if alpha != "cv" and not (_is_real(alpha) and 0.0 <= alpha <= 1.0):
        raise ParameterError(
            f"estimator {spec.label!r}: 'alpha' must be \"cv\" or a number in [0, 1], not {alpha!r}"
        )
    if alpha == "cv" and lam != "cv":
        raise ParameterError(f"estimator {spec.label!r}: 'alpha' \"cv\" needs 'lam' \"cv\"")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _build_penalized(default_alpha: float) -> Callable[[Mapping], Fitter]:
    def build(params: Mapping) -> Fitter:
        lam = params.get("lam", "cv")
        alpha = params.get("alpha", default_alpha)
        folds = int(params.get("cv_folds", 10))
        n_lambdas = int(params.get("cv_lambdas", 100))
        min_ratio = float(params.get("lambda_min_ratio", 1e-4))
        weighted_loss = bool(params.get("cv_weighted_loss", True))
        tol = float(params.get("tol", DEFAULT_TOL))
        # ranking penalties does not need full coefficient precision
        cv_tol = float(params.get("cv_tol", 1e-4))
        patience = params.get("cv_patience")
        patience = int(patience) if patience is not None else None
        max_iter = int(params.get("max_iter", DEFAULT_MAX_SWEEPS))
        alpha_grid = None if alpha == "cv" else (float(alpha),)

        def fit(sample, xs, ys, pop_xw, rng):
            if lam == "cv":
                spec = cross_validate(
                    sample,
                    xs,
                    ys,
                    alpha_grid=alpha_grid,
                    folds=folds,
                    rng=rng,
                    weighted_loss=weighted_loss,
                    n_lambdas=n_lambdas,
                    lambda_min_ratio=min_ratio,
                    patience=patience,
                    tol=cv_tol,
                    max_iter=max_iter,
                )
            else:
                spec = PenaltySpec(lam=float(lam), alpha=float(alpha))
            if spec.alpha == 0.0:
                predictor = fit_ridge(sample, xs, ys, spec.lam)
            else:
                predictor = fit_elastic_net(sample, xs, ys, spec, tol=tol, max_iter=max_iter)
            return _ma_total(predictor, sample, ys, pop_xw)

        return fit

    return build


_TREE_KEYS = frozenset({"min_leaf"})


def _build_tree(params: Mapping) -> Fitter:
    min_leaf = int(params.get("min_leaf", 5))

    def fit(sample, xs, ys, pop_xw, rng):
        tree = grow_tree(sample, xs, ys, min_leaf)
        return _ma_total(tree_predictor(tree), sample, ys, pop_xw)

    return fit


_FOREST_KEYS = frozenset(
    {"n_trees", "min_leaf", "n_split_features", "bootstrap", "forced_features", "weighted_bootstrap"}
)


def _build_forest(params: Mapping) -> Fitter:
    split = params.get("n_split_features", "sqrt")
    min_leaf = params.get("min_leaf", 5)

    def fit(sample, xs, ys, pop_xw, rng):
        p = xs.shape[1]
        if split == "sqrt":
            k = None
        elif split == "third":
            k = max(1, p // 3)
        elif split == "all":
            k = p
        else:
            k = int(split)
        if min_leaf == "n_13_20":
            leaf = math.ceil(sample.n ** (13 / 20))
        else:
            leaf = int(min_leaf)
        spec = ForestSpec(
            n_trees=int(params.get("n_trees", 1000)),
            min_leaf=leaf,
            n_split_features=k,
            bootstrap=bool(params.get("bootstrap", True)),
            forced_features=tuple(params.get("forced_features", ())),
            weighted_bootstrap=bool(params.get("weighted_bootstrap", False)),
        )
        forest = fit_forest(sample, xs, ys, spec, rng)
        return _ma_total(forest, sample, ys, pop_xw)

    return fit


_KNN_KEYS = frozenset({"k", "weighted"})


def _build_knn(params: Mapping) -> Fitter:
    k = int(params.get("k", 5))
    weighted = bool(params.get("weighted", False))

    def fit(sample, xs, ys, pop_xw, rng):
        return _ma_total(fit_knn(sample, xs, ys, k, weighted=weighted), sample, ys, pop_xw)

    return fit


_PCR_KEYS = frozenset({"rule", "n_components"})


def _build_pcr(params: Mapping) -> Fitter:
    if "rule" in params:
        spec = PcrSpec(rule=params["rule"])
    else:
        spec = PcrSpec(n_components=int(params.get("n_components", 1)))

    def fit(sample, xs, ys, pop_xw, rng):
        return _ma_total(fit_pcr(sample, xs, ys, spec), sample, ys, pop_xw)

    return fit


METHODS: dict[str, Callable[[Mapping], Fitter]] = {
    HT_METHOD: _build_ht,
    "greg": _build_greg,
    "ridge": _build_penalized(0.0),
    "lasso": _build_penalized(1.0),
    "en": _build_penalized(0.5),
    "tree": _build_tree,
    "forest": _build_forest,
    "knn": _build_knn,
    "pcr": _build_pcr,
}


#: Parameter keys of the built-in methods.  Methods added through
#: ``register_method`` are not checked.
_ACCEPTED_KEYS: dict[str, frozenset[str]] = {
    HT_METHOD: _HT_KEYS,
    "greg": _GREG_KEYS,
    "ridge": _PENALIZED_KEYS,
    "lasso": _PENALIZED_KEYS,
    "en": _PENALIZED_KEYS,
    "tree": _TREE_KEYS,
    "forest": _FOREST_KEYS,
    "knn": _KNN_KEYS,
    "pcr": _PCR_KEYS,
}


def _check_params(spec: EstimatorSpec) -> None:
    accepted = _ACCEPTED_KEYS.get(spec.method)
    if accepted is None:
        return
    for key in spec.params:
        if key not in accepted:
            raise ParameterError(
                f"estimator {spec.label!r}: method {spec.method!r} has no parameter {key!r} "
                f"(it accepts: {', '.join(sorted(accepted)) or 'none'})"
            )
    if accepted is _PENALIZED_KEYS:
        _check_penalty(spec)


def register_method(name: str, builder: Callable[[Mapping], Fitter], *, replace_existing: bool = False) -> None:
    """Add a custom estimator to the roster registry."""
    if name in METHODS and not replace_existing:
        raise ParameterError(f"method {name!r} already registered")
    METHODS[name] = builder
    _ACCEPTED_KEYS.pop(name, None)


def _method_stream_key(label: str) -> int:
    # Stable across runs and platforms, unlike hash().
    return zlib.crc32(label.encode("utf-8"))


def _run_replicates(scenario: McScenario, level: int, reps: Sequence[int]):
    pop = scenario.population
    columns = list(scenario.working_columns(level))
    pop_xw = pop.x[:, columns]
    roster = scenario.estimators
    fitters = [METHODS[spec.method](spec.params) for spec in roster]
    keys = [_method_stream_key(spec.label) for spec in roster]
    estimates = np.full((len(reps), len(roster)), np.nan)
    messages: list[list[str | None]] = []
    for row, r in enumerate(reps):
        sample = draw(scenario.design, pop, substream(scenario.master_seed, r))
        xs = pop.x[np.ix_(sample.indices, columns)]
        ys = pop.y[sample.indices]
        msg_row: list[str | None] = [None] * len(roster)
        for m, fitter in enumerate(fitters):
            rng = substream(scenario.master_seed, r, keys[m])
            try:
                estimates[row, m] = fitter(sample, xs, ys, pop_xw, rng)
            except (SvyestError, np.linalg.LinAlgError) as exc:
                msg_row[m] = f"replicate {r}: {exc}"
        messages.append(msg_row)
    return estimates, messages


_WORKER_ARGS: tuple[McScenario, int] | None = None


def _openblas_function(name: str, restype, argtypes):
    """``openblas_<name>`` of the OpenBLAS bundled with numpy, or None."""
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = restype
                function.argtypes = argtypes
                return function
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set the OpenBLAS thread count; returns the previous one, or None without OpenBLAS."""
    get_threads = _openblas_function("get_num_threads", ctypes.c_int, [])
    set_threads = _openblas_function("set_num_threads", None, [ctypes.c_int])
    if get_threads is None or set_threads is None:
        return None
    previous = get_threads()
    set_threads(count)
    return previous


def _worker_init(scenario: McScenario, level: int) -> None:
    # Workers already split the cores; BLAS threads of their own would
    # oversubscribe them and spin on every small solve.
    _set_blas_threads(1)
    global _WORKER_ARGS
    _WORKER_ARGS = (scenario, level)


def _worker_chunk(reps: Sequence[int]):
    scenario, level = _WORKER_ARGS
    return _run_replicates(scenario, level, reps)


def run_scenario(scenario: McScenario, *, threads: int = 1, log_estimates: bool = True) -> McReport:
    """Run one noise level: draw R samples, fit the roster on each, aggregate.

    Every method sees the identical sample in a replicate.  A Horvitz-Thompson
    row is always present (prepended when not in the roster) and anchors the
    relative-efficiency ratio at exactly 100.  Per-method failures are
    excluded with a count; a method failing more than 1 percent of replicates
    aborts the run.
    """
    if len(scenario.d_noise_levels) != 1:
        raise ParameterError("run_scenario handles one d_noise level; use sweep_dnoise")
    if not any(spec.method == HT_METHOD for spec in scenario.estimators):
        scenario = replace(
            scenario, estimators=(EstimatorSpec(method=HT_METHOD),) + scenario.estimators
        )
    level = scenario.d_noise_levels[0]
    n_reps = scenario.replicates
    reps = list(range(1, n_reps + 1))

    if threads > 1 and n_reps > 1:
        n_chunks = min(n_reps, threads * 4)
        bounds = np.linspace(0, n_reps, n_chunks + 1).astype(int)
        chunks = [reps[bounds[i] : bounds[i + 1]] for i in range(n_chunks) if bounds[i] < bounds[i + 1]]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=threads, initializer=_worker_init, initargs=(scenario, level)
        ) as pool:
            parts = list(pool.map(_worker_chunk, chunks))
        estimates = np.vstack([p[0] for p in parts])
        messages = [row for p in parts for row in p[1]]
    else:
        # One BLAS thread here too: OpenBLAS rounds some products differently
        # by thread count, and estimates must not depend on ``threads``.
        previous = _set_blas_threads(1)
        try:
            estimates, messages = _run_replicates(scenario, level, reps)
        finally:
            if previous is not None:
                _set_blas_threads(previous)

    t_y = scenario.population.total()
    if t_y == 0:
        raise RunError("population total is zero; relative bias is undefined")
    roster = scenario.estimators
    stats = {}
    estimate_log = {}
    failures = {}
    for m, spec in enumerate(roster):
        column = estimates[:, m]
        ok = np.isfinite(column)
        n_ok = int(ok.sum())
        errors = [msg[m] for msg in messages if msg[m] is not None]
        if n_reps - n_ok > FAILURE_SHARE_LIMIT * n_reps:
            detail = "; ".join(errors[:3])
            raise RunError(
                f"method {spec.label!r} failed {n_reps - n_ok} of {n_reps} replicates: {detail}"
            )
        if errors:
            failures[(spec.label, level)] = tuple(errors)
        deviations = (column[ok] - t_y).tolist()
        rb = 100.0 * math.fsum(deviations) / n_ok / t_y
        mse = math.fsum(dev * dev for dev in deviations) / n_ok
        stats[spec.label] = (rb, mse, n_ok)
        if log_estimates:
            estimate_log[(spec.label, level)] = column.copy()

    mse_ht = stats[next(spec.label for spec in roster if spec.method == HT_METHOD)][1]
    rows = []
    for spec in roster:
        rb, mse, n_ok = stats[spec.label]
        if spec.method == HT_METHOD:
            re = 100.0
        elif mse_ht > 0:
            re = 100.0 * mse / mse_ht
        else:
            re = 0.0 if mse == 0 else math.inf
        rows.append(
            McRow(
                method=spec.label,
                d_noise=level,
                rb_percent=rb,
                re_percent=re,
                mse=mse,
                r=n_ok,
                seed=scenario.master_seed,
            )
        )
    rows.sort(key=lambda row: (row.method, row.d_noise))
    return McReport(
        rows=tuple(rows),
        estimates=estimate_log if log_estimates else None,
        failures=failures,
    )


def sweep_dnoise(
    scenario: McScenario,
    levels: Sequence[int] | None = None,
    *,
    threads: int = 1,
    log_estimates: bool = True,
) -> McReport:
    """Run every noise level with paired replicate seeds and stack the rows."""
    if levels is None:
        levels = scenario.d_noise_levels
    levels = tuple(int(v) for v in levels)
    if list(levels) != sorted(levels):
        raise ParameterError("d_noise levels must be sorted ascending")
    rows: list[McRow] = []
    estimates: dict[tuple[str, int], np.ndarray] = {}
    failures: dict[tuple[str, int], tuple[str, ...]] = {}
    for level in levels:
        part = run_scenario(
            replace(scenario, d_noise_levels=(level,)),
            threads=threads,
            log_estimates=log_estimates,
        )
        rows.extend(part.rows)
        if part.estimates:
            estimates.update(part.estimates)
        failures.update(part.failures)
    rows.sort(key=lambda row: (row.method, row.d_noise))
    return McReport(
        rows=tuple(rows),
        estimates=estimates if log_estimates else None,
        failures=failures,
    )


def write_report(report: McReport, path: str | Path) -> None:
    """Write rows as comma-separated text; floats keep 17 significant digits.

    The file lands atomically: a temp file is moved into place on success.
    """
    path = Path(path)
    rows = sorted(report.rows, key=lambda row: (row.method, row.d_noise))
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.method,
                    row.d_noise,
                    f"{row.rb_percent:.17g}",
                    f"{row.re_percent:.17g}",
                    f"{row.mse:.17g}",
                    row.r,
                    row.seed,
                ]
            )
    os.replace(tmp, path)


def read_report(path: str | Path) -> McReport:
    """Read rows written by ``write_report``."""
    path = Path(path)
    if not path.exists():
        raise LoadError(f"report file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(next(reader))
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        if header != REPORT_HEADER:
            raise LoadError(f"{path}: unexpected header {header!r}")
        rows = []
        for cells in reader:
            if not cells:
                continue
            if len(cells) != len(REPORT_HEADER):
                raise LoadError(f"{path}: malformed row {cells!r}")
            rows.append(
                McRow(
                    method=cells[0],
                    d_noise=int(cells[1]),
                    rb_percent=float(cells[2]),
                    re_percent=float(cells[3]),
                    mse=float(cells[4]),
                    r=int(cells[5]),
                    seed=int(cells[6]),
                )
            )
    return McReport(rows=tuple(rows))


def _design_from_config(config: Mapping) -> SamplingDesign:
    kind = config.get("kind", "srswor")
    if kind == "srswor":
        return Srswor(n=int(config["n"]))
    if kind == "stratified":
        return StratifiedSrs(
            n=int(config["n"]),
            allocation=config.get("allocation", "proportional"),
            aux_column=config.get("aux_column"),
        )
    raise ParameterError(f"unknown design kind {kind!r}")


def _population_from_config(config: Mapping, base_dir: Path) -> FinitePopulation:
    if ("generator" in config) == ("file" in config):
        raise ParameterError("population config needs exactly one of 'generator' or 'file'")
    if "generator" in config:
        gen = config["generator"]
        pop = generate_auxiliary(
            int(gen["units"]),
            int(gen["columns"]),
            float(gen.get("rho", 0.0)),
            int(gen.get("seed", 0)),
            loc=float(gen.get("loc", 180.0)),
            scale=float(gen.get("scale", 40.0)),
        )
    else:
        file_cfg = config["file"]
        if isinstance(file_cfg, str):
            pop = load_population(base_dir / file_cfg)
        else:
            schema_cfg = file_cfg.get("schema")
            schema = None
            if schema_cfg:
                schema = ColumnSchema(
                    x=tuple(schema_cfg["x"]) if "x" in schema_cfg else None,
                    y=schema_cfg.get("y"),
                    strata=schema_cfg.get("strata"),
                    ids=schema_cfg.get("ids"),
                )
            pop = load_population(base_dir / file_cfg["path"], schema)
    strata_cfg = config.get("strata")
    if strata_cfg:
        pop = assign_strata_by_quantile(pop, int(strata_cfg.get("column", 0)), int(strata_cfg["count"]))
    return pop


def load_scenario(path: str | Path) -> McScenario:
    """Build a scenario from a JSON configuration file.

    The layout is documented in the README: a population source (generator or
    file), an optional model, a design, an estimator roster, noise levels,
    a replicate count, and the master seed.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"scenario file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON ({exc})") from exc
    try:
        pop = _population_from_config(config["population"], path.parent)
        model = None
        if "model" in config:
            model_cfg = config["model"]
            model = DgpModel(
                variant=model_cfg["variant"],
                noise_scale=model_cfg.get("noise_scale"),
                seed=int(model_cfg.get("seed", 0)),
            )
            if pop.y is None:
                pop = generate_survey_variable(pop, model)
        roster = []
        for entry in config["estimators"]:
            params = {k: v for k, v in entry.items() if k not in ("method", "name")}
            roster.append(EstimatorSpec(method=entry["method"], name=entry.get("name"), params=params))
        structural = config.get("structural_columns")
        return McScenario(
            population=pop,
            design=_design_from_config(config["design"]),
            estimators=tuple(roster),
            d_noise_levels=tuple(config["d_noise_levels"]),
            replicates=int(config["replicates"]),
            master_seed=int(config["master_seed"]),
            model=model,
            structural_columns=tuple(structural) if structural is not None else None,
        )
    except KeyError as exc:
        raise LoadError(f"{path}: missing scenario key {exc}") from exc
