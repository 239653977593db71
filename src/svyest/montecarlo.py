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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .baselines import PCR_RULES, fit_knn, fit_pcr
from .errors import LoadError, ParameterError, RunError, SvyestError
from .estimators import fit_greg, horvitz_thompson, model_assisted
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
from .sampling import SamplingDesign, Srswor, StratifiedSrs, draw, substream
from .trees import MIN_LEAF_RULES, SPLIT_FEATURE_RULES, fit_forest, grow_tree, tree_predictor

REPORT_HEADER = ("method", "d_noise", "rb_percent", "re_percent", "mse", "r", "seed")

#: A method failing more than this share of replicates fails the whole run.
FAILURE_SHARE_LIMIT = 0.01

HT_METHOD = "ht"


@dataclass(frozen=True)
class EstimatorSpec:
    """One roster entry: a method name from ``METHODS`` plus its settings."""

    method: str
    name: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return self.name if self.name is not None else self.method


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: A rule is (test, description of the values it accepts).
_Rule = tuple[Callable[[Any], bool], str]

_BOOL: _Rule = (lambda v: isinstance(v, bool), "true or false")
_INT: _Rule = (_is_int, "an integer")
_REAL: _Rule = (_is_real, "a number")
_POSITIVE: _Rule = (lambda v: _is_real(v) and 0 < v < math.inf, "a finite positive number")


def _count(low: int = 1) -> _Rule:
    return (lambda v: _is_int(v) and v >= low, f"an integer of at least {low}")


def _or(words: tuple[str | None, ...], rule: _Rule) -> _Rule:
    ok, expected = rule
    names = ", ".join("null" if w is None else f'"{w}"' for w in words)
    return (lambda v: v in words or ok(v), f"{names} or {expected}")


def _check(settings, **rules: _Rule) -> None:
    for name, (ok, expected) in rules.items():
        value = getattr(settings, name)
        if not ok(value):
            raise ParameterError(f"{name!r} must be {expected}, not {value!r}")


# Each method is a frozen dataclass of its settings, checked on construction.
# Calling it with (sample, x on the sample, y on the sample, the working
# population, the method's rng) returns the estimated total.  Greg, Forest,
# Knn and Pcr pass their fields as keywords of the same names to their fit
# function, a module global looked up per call (bench/spans.py rebinds it).


@dataclass(frozen=True)
class Ht:
    def __call__(self, sample, xs, ys, working, rng) -> float:
        return horvitz_thompson(sample, ys).t_hat


@dataclass(frozen=True)
class Greg:
    intercept: bool = True

    def __post_init__(self):
        _check(self, intercept=_BOOL)

    def __call__(self, sample, xs, ys, working, rng) -> float:
        return model_assisted(sample, working, fit_greg(sample, xs, ys, **vars(self))).t_hat


@dataclass(frozen=True)
class Lasso:
    """Penalized regression; ``lam`` (and ``alpha``) "cv" are chosen by cross-validation."""

    lam: float | str = "cv"
    alpha: float | str = 1.0
    cv_folds: int = 10
    cv_lambdas: int = 100
    lambda_min_ratio: float = 1e-4
    cv_weighted_loss: bool = True
    tol: float = DEFAULT_TOL
    # ranking penalties does not need full coefficient precision
    cv_tol: float = 1e-4
    cv_patience: int | None = None
    max_iter: int = DEFAULT_MAX_SWEEPS

    def __post_init__(self):
        _check(
            self,
            lam=_or(("cv",), (lambda v: _is_real(v) and 0 <= v < math.inf, "a finite nonnegative number")),
            alpha=_or(("cv",), (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")),
            cv_folds=_count(2),
            cv_lambdas=_count(),
            lambda_min_ratio=_POSITIVE,
            cv_weighted_loss=_BOOL,
            tol=_POSITIVE,
            cv_tol=_POSITIVE,
            cv_patience=_or((None,), _count()),
            max_iter=_count(),
        )
        if self.alpha == "cv" and self.lam != "cv":
            raise ParameterError("'alpha' \"cv\" needs 'lam' \"cv\"")

    def __call__(self, sample, xs, ys, working, rng) -> float:
        if self.lam == "cv":
            alpha_grid = None if self.alpha == "cv" else (float(self.alpha),)
            penalty = cross_validate(
                sample, xs, ys, alpha_grid=alpha_grid, folds=self.cv_folds, rng=rng,
                weighted_loss=self.cv_weighted_loss, n_lambdas=self.cv_lambdas,
                lambda_min_ratio=float(self.lambda_min_ratio), patience=self.cv_patience,
                tol=float(self.cv_tol), max_iter=self.max_iter,
            )
        else:
            penalty = PenaltySpec(lam=float(self.lam), alpha=float(self.alpha))
        if penalty.alpha == 0.0:
            predictor = fit_ridge(sample, xs, ys, penalty.lam)
        else:
            predictor = fit_elastic_net(sample, xs, ys, penalty, tol=float(self.tol), max_iter=self.max_iter)
        return model_assisted(sample, working, predictor).t_hat


@dataclass(frozen=True)
class Ridge(Lasso):
    alpha: float | str = 0.0


@dataclass(frozen=True)
class ElasticNet(Lasso):
    alpha: float | str = 0.5


@dataclass(frozen=True)
class Tree:
    min_leaf: int = 5

    def __post_init__(self):
        _check(self, min_leaf=_count())

    def __call__(self, sample, xs, ys, working, rng) -> float:
        return model_assisted(sample, working, tree_predictor(grow_tree(sample, xs, ys, self.min_leaf))).t_hat


@dataclass(frozen=True)
class Forest:
    """Settings of ``fit_forest``, which resolves the named values."""

    n_trees: int = 1000
    min_leaf: int | str = 5
    n_split_features: int | str = "sqrt"
    bootstrap: bool = True
    forced_features: tuple[int, ...] = ()
    weighted_bootstrap: bool = False

    def __post_init__(self):
        _check(
            self,
            n_trees=_count(),
            min_leaf=_or(tuple(MIN_LEAF_RULES), _count()),
            n_split_features=_or(tuple(SPLIT_FEATURE_RULES), _count()),
            bootstrap=_BOOL,
            forced_features=(
                lambda v: isinstance(v, (list, tuple)) and all(_is_int(f) and f >= 0 for f in v),
                "a list of nonnegative integers",
            ),
            weighted_bootstrap=_BOOL,
        )
        object.__setattr__(self, "forced_features", tuple(self.forced_features))

    def __call__(self, sample, xs, ys, working, rng) -> float:
        return model_assisted(sample, working, fit_forest(sample, xs, ys, rng, **vars(self))).t_hat


@dataclass(frozen=True)
class Knn:
    k: int = 5
    weighted: bool = False

    def __post_init__(self):
        _check(self, k=_count(), weighted=_BOOL)

    def __call__(self, sample, xs, ys, working, rng) -> float:
        return model_assisted(sample, working, fit_knn(sample, xs, ys, **vars(self))).t_hat


@dataclass(frozen=True)
class Pcr:
    """Keeps ``n_components`` components, or as many as ``rule`` gives; one component by default."""

    n_components: int | None = None
    rule: str | None = None

    def __post_init__(self):
        rule = (lambda v: isinstance(v, str) and v in PCR_RULES, f"one of {', '.join(PCR_RULES)}")
        _check(self, n_components=_or((None,), _count()), rule=_or((None,), rule))
        if self.rule is not None and self.n_components is not None:
            raise ParameterError("'rule' and 'n_components' exclude each other")

    def __call__(self, sample, xs, ys, working, rng) -> float:
        return model_assisted(sample, working, fit_pcr(sample, xs, ys, **vars(self))).t_hat


#: Method name -> settings class.  Its fields are the keys a roster entry takes.
METHODS: dict[str, type] = {
    HT_METHOD: Ht,
    "greg": Greg,
    "ridge": Ridge,
    "lasso": Lasso,
    "en": ElasticNet,
    "tree": Tree,
    "forest": Forest,
    "knn": Knn,
    "pcr": Pcr,
}


def _keys(where: str, config, rules: Mapping[str, _Rule | None]) -> Mapping:
    """``config``, checked to be a mapping whose keys all have a rule in ``rules`` (None: any value) and pass it."""
    if not isinstance(config, Mapping):
        raise LoadError(f"{where} must be a JSON object, not {config!r}")
    for key, value in config.items():
        if key not in rules:
            raise ParameterError(f"{where} has no key {key!r} (it accepts: {', '.join(sorted(rules)) or 'none'})")
        if rules[key] is not None and not rules[key][0](value):
            raise ParameterError(f"{where}: {key!r} must be {rules[key][1]}, not {value!r}")
    return config


def _parse(spec: EstimatorSpec):
    """The checked settings object of a roster entry."""
    if spec.method not in METHODS:
        raise ParameterError(f"no such method {spec.method!r}")
    settings = METHODS[spec.method]
    _keys(f"estimator {spec.label!r}: method {spec.method!r}", spec.params, {f.name: None for f in fields(settings) if f.init})
    try:
        return settings(**spec.params)
    except ParameterError as exc:
        raise ParameterError(f"estimator {spec.label!r}: {exc}") from exc


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

    def __eq__(self, other):
        # Logged estimates are arrays, NaN where a fit failed.
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.estimates, other.estimates
        same_log = mine is theirs or (
            mine is not None
            and theirs is not None
            and mine.keys() == theirs.keys()
            and all(np.array_equal(mine[key], theirs[key], equal_nan=True) for key in mine)
        )
        return same_log and self.rows == other.rows and self.failures == other.failures


@dataclass(frozen=True)
class McScenario:
    """A complete experiment description; immutable and process-safe.

    ``d_noise_levels``, strictly increasing, counts the extra auxiliary
    columns joining the structural columns in the working matrix;
    ``run_scenario`` handles one level, ``sweep_dnoise`` stacks them.
    ``methods`` holds the checked settings of each roster entry, in order.
    """

    population: FinitePopulation
    design: SamplingDesign
    estimators: tuple[EstimatorSpec, ...]
    d_noise_levels: tuple[int, ...]
    replicates: int
    master_seed: int
    model: DgpModel | None = None
    structural_columns: tuple[int, ...] | None = None
    methods: tuple[Any, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        levels = (
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(_is_int, v))
            and all(a < b for a, b in zip(v, v[1:])),
            "a nonempty, strictly increasing list of integers",
        )
        _check(self, d_noise_levels=levels, replicates=_count(), master_seed=_count(0))
        object.__setattr__(self, "d_noise_levels", tuple(int(v) for v in self.d_noise_levels))
        if self.population.y is None:
            raise ParameterError("scenario population has no survey variable")
        if not self.estimators:
            raise ParameterError("estimator roster is empty")
        labels = [spec.label for spec in self.estimators]
        if len(set(labels)) != len(labels):
            raise ParameterError("estimator labels must be unique")
        object.__setattr__(self, "methods", tuple(_parse(spec) for spec in self.estimators))
        structural = self.structural()
        budget = self.population.n_aux - len(structural)
        for level in self.d_noise_levels:
            if level < 0 or level > budget:
                raise ParameterError(
                    f"d_noise level {level} outside [0, {budget}] for this population"
                )
        narrowest = len(structural) + min(self.d_noise_levels)
        if narrowest < 1:
            raise ParameterError("no structural columns and d_noise level 0 leave the working matrix empty")
        for spec, method in zip(self.estimators, self.methods):
            if isinstance(method, Forest) and any(f >= narrowest for f in method.forced_features):
                raise ParameterError(
                    f"estimator {spec.label!r}: 'forced_features' {method.forced_features} must be "
                    f"below {narrowest}, the narrowest working matrix's column count"
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


def _method_stream_key(label: str) -> int:
    # Stable across runs and platforms, unlike hash().
    return zlib.crc32(label.encode("utf-8"))


def _run_replicates(scenario: McScenario, level: int, reps: Sequence[int]):
    pop = scenario.population
    working = replace(pop, x=pop.x[:, list(scenario.working_columns(level))])
    keys = [_method_stream_key(spec.label) for spec in scenario.estimators]
    estimates = np.full((len(reps), len(keys)), np.nan)
    messages: list[list[str | None]] = []
    for row, r in enumerate(reps):
        sample = draw(scenario.design, pop, substream(scenario.master_seed, r))
        xs = working.x[sample.indices]
        ys = pop.y[sample.indices]
        msg_row: list[str | None] = [None] * len(keys)
        for m, method in enumerate(scenario.methods):
            rng = substream(scenario.master_seed, r, keys[m])
            try:
                estimates[row, m] = method(sample, xs, ys, working, rng)
            except (SvyestError, np.linalg.LinAlgError) as exc:
                msg_row[m] = f"replicate {r}: {exc}"
        messages.append(msg_row)
    return estimates, messages


_WORKER_SCENARIO: McScenario | None = None


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


def _worker_init(scenario: McScenario) -> None:
    # Workers already split the cores; BLAS threads of their own would
    # oversubscribe them and spin on every small solve.
    _set_blas_threads(1)
    global _WORKER_SCENARIO
    _WORKER_SCENARIO = scenario


def _worker_chunk(task: tuple[int, Sequence[int]]):
    level, reps = task
    return _run_replicates(_WORKER_SCENARIO, level, reps)


def _start_pool(scenario: McScenario, threads: int) -> concurrent.futures.ProcessPoolExecutor:
    """Workers that each hold ``scenario``, sent once; tasks are (level, replicates)."""
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=threads, initializer=_worker_init, initargs=(scenario,)
    )


def _with_ht(scenario: McScenario) -> McScenario:
    """The scenario with a Horvitz-Thompson entry prepended when the roster has none."""
    if any(spec.method == HT_METHOD for spec in scenario.estimators):
        return scenario
    return replace(scenario, estimators=(EstimatorSpec(method=HT_METHOD),) + scenario.estimators)


def run_scenario(scenario: McScenario, *, threads: int = 1, log_estimates: bool = True, _pool=None) -> McReport:
    """Run one noise level: draw R samples, fit the roster on each, aggregate.

    Every method sees the identical sample in a replicate.  A Horvitz-Thompson
    row is always present (prepended when not in the roster) and anchors the
    relative-efficiency ratio at exactly 100.  Per-method failures are
    excluded with a count; a method failing more than 1 percent of replicates
    aborts the run.

    With ``threads`` > 1 and more than one replicate, the replicates run in
    up to ``4 * threads`` contiguous chunks on a process pool of ``threads``
    workers, opened and shut down inside this call.  (``sweep_dnoise`` passes
    its own pool, already holding the scenario, as ``_pool``.)
    """
    if len(scenario.d_noise_levels) != 1:
        raise ParameterError("run_scenario handles one d_noise level; use sweep_dnoise")
    scenario = _with_ht(scenario)
    level = scenario.d_noise_levels[0]
    n_reps = scenario.replicates
    reps = list(range(1, n_reps + 1))

    if threads > 1 and n_reps > 1:
        n_chunks = min(n_reps, threads * 4)
        bounds = np.linspace(0, n_reps, n_chunks + 1).astype(int)
        tasks = [(level, reps[bounds[i] : bounds[i + 1]]) for i in range(n_chunks) if bounds[i] < bounds[i + 1]]
        if _pool is None:
            with _start_pool(scenario, threads) as pool:
                parts = list(pool.map(_worker_chunk, tasks))
        else:
            parts = list(_pool.map(_worker_chunk, tasks))
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


def sweep_dnoise(scenario: McScenario, *, threads: int = 1, log_estimates: bool = True) -> McReport:
    """Run every noise level with paired replicate seeds and stack the rows.

    Each level is one ``run_scenario`` call, in ascending order.  With
    ``threads`` > 1 and more than one replicate, all levels share one
    process pool: it receives the scenario once when its workers start, and
    it is shut down, its workers joined, before this call returns or raises.
    No process outlives the call.
    """
    scenario = _with_ht(scenario)
    pool = _start_pool(scenario, threads) if threads > 1 and scenario.replicates > 1 else None
    rows: list[McRow] = []
    estimates: dict[tuple[str, int], np.ndarray] = {}
    failures: dict[tuple[str, int], tuple[str, ...]] = {}
    try:
        for level in scenario.d_noise_levels:
            part = run_scenario(
                replace(scenario, d_noise_levels=(level,)),
                threads=threads,
                log_estimates=log_estimates,
                _pool=pool,
            )
            rows.extend(part.rows)
            if part.estimates:
                estimates.update(part.estimates)
            failures.update(part.failures)
    finally:
        if pool is not None:
            pool.shutdown()
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


def _design_from_config(config) -> SamplingDesign:
    _keys("'design'", config, {"kind": None, "n": _INT, "allocation": None, "aux_column": _or((None,), _INT)})
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


def _population_from_config(config, base_dir: Path) -> FinitePopulation:
    _keys("'population'", config, dict.fromkeys(("generator", "file", "strata")))
    if ("generator" in config) == ("file" in config):
        raise ParameterError("population config needs exactly one of 'generator' or 'file'")
    if "generator" in config:
        gen = config["generator"]
        _keys(
            "'population.generator'", gen,
            {"units": _INT, "columns": _INT, "rho": _REAL, "seed": _INT, "loc": _REAL, "scale": _REAL},
        )
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
            schema_cfg = _keys("'population.file'", file_cfg, dict.fromkeys(("path", "schema"))).get("schema")
            schema = None
            if schema_cfg:
                _keys("'population.file.schema'", schema_cfg, dict.fromkeys(("x", "y", "strata", "ids")))
                schema = ColumnSchema(
                    x=tuple(schema_cfg["x"]) if "x" in schema_cfg else None,
                    y=schema_cfg.get("y"),
                    strata=schema_cfg.get("strata"),
                    ids=schema_cfg.get("ids"),
                )
            pop = load_population(base_dir / file_cfg["path"], schema)
    strata_cfg = config.get("strata")
    if strata_cfg:
        _keys("'population.strata'", strata_cfg, {"count": _INT, "column": _INT})
        pop = assign_strata_by_quantile(pop, int(strata_cfg.get("column", 0)), int(strata_cfg["count"]))
    return pop


def load_scenario(path: str | Path) -> McScenario:
    """Build a scenario from a JSON configuration file.

    The layout is documented in the README: a population source (generator or
    file), an optional model, a design, an estimator roster, noise levels,
    a replicate count, and the master seed.  An unknown key or a value of the
    wrong type fails with an error naming the section and the key.
    """
    path = Path(path)
    if not path.exists():
        raise LoadError(f"scenario file not found: {path}")
    try:
        config = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path}: invalid JSON ({exc})") from exc
    try:
        _keys("scenario", config, dict.fromkeys(("population", "model", "design", "estimators", "d_noise_levels",
                                                 "replicates", "master_seed", "structural_columns")))
        pop = _population_from_config(config["population"], path.parent)
        model = None
        if "model" in config:
            model_cfg = config["model"]
            _keys("'model'", model_cfg, {"variant": None, "noise_scale": _or((None,), _REAL), "seed": _INT})
            model = DgpModel(
                variant=model_cfg["variant"],
                noise_scale=model_cfg.get("noise_scale"),
                seed=int(model_cfg.get("seed", 0)),
            )
            if pop.y is None:
                pop = generate_survey_variable(pop, model)
        roster = []
        for entry in config["estimators"]:
            if not isinstance(entry, Mapping):
                raise LoadError(f"{path}: each 'estimators' entry must be a JSON object, not {entry!r}")
            params = {k: v for k, v in entry.items() if k not in ("method", "name")}
            roster.append(EstimatorSpec(method=entry["method"], name=entry.get("name"), params=params))
        structural = config.get("structural_columns")
        return McScenario(
            population=pop,
            design=_design_from_config(config["design"]),
            estimators=tuple(roster),
            d_noise_levels=config["d_noise_levels"],
            replicates=config["replicates"],
            master_seed=config["master_seed"],
            model=model,
            structural_columns=tuple(structural) if structural is not None else None,
        )
    except KeyError as exc:
        raise LoadError(f"{path}: missing scenario key {exc}") from exc
