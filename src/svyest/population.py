"""Finite populations: synthesis, survey-variable generation, and delimited I/O.

A population is an immutable bundle of unit identifiers, an N x p auxiliary
matrix, optional survey values y, and optional stratum labels.  Generators are
pure functions of their parameters and a seed.
"""
from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import LoadError, ParameterError

#: Auxiliary columns entering each survey-variable formula (0-based).
STRUCTURAL_COLUMNS = {
    "Y1": (0, 1, 2),
    "Y2": (1, 3, 4),
    "Y3": (0, 1, 2),
    "Y4": (0, 1),
}

#: Default noise setting per variant.  For Y1, Y2 and Y4 this is the variance
#: of the additive centred normal noise; for Y3 it is the mean of the
#: exponential errors (which are re-centred over the population).
DEFAULT_NOISE_SCALE = {"Y1": 1500.0, "Y2": 1500.0, "Y3": 0.1, "Y4": 0.01}

_MIN_COLUMNS = {"Y1": 3, "Y2": 5, "Y3": 3, "Y4": 2}

#: Cut points for the Y2 step terms: (column, threshold) pairs.
_Y2_THRESHOLDS = ((4, 156.0), (1, 190.0), (4, 200.0))


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def array_eq(self, other) -> bool:
    """Dataclass ``==`` that compares array fields with ``np.array_equal``.

    The generated ``__eq__`` takes the truth value of ``array == array``,
    which raises for arrays of more than one element.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    return all(
        np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else a == b
        for a, b in pairs
    )


@dataclass(frozen=True)
class FinitePopulation:
    """A finite population of N units with p auxiliary variables.

    ``x`` is the N x p auxiliary matrix, ``y`` the survey variable (may be
    absent before generation), and ``strata`` optional integer labels that
    must be contiguous ``1..H`` with every stratum non-empty.  Instances are
    immutable and safe to share across threads and processes.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray | None = None
    strata: np.ndarray | None = None

    __eq__ = array_eq

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ParameterError("auxiliary matrix must be N x p with N >= 1, p >= 1")
        if not np.all(np.isfinite(x)):
            raise ParameterError("auxiliary matrix contains non-finite entries")
        object.__setattr__(self, "x", _frozen_array(x))

        ids = np.asarray(self.ids)
        if ids.shape != (x.shape[0],):
            raise ParameterError("ids must have one entry per unit")
        object.__setattr__(self, "ids", _frozen_array(ids, dtype=ids.dtype))

        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            if y.shape != (x.shape[0],):
                raise ParameterError("y must have one value per unit")
            if not np.all(np.isfinite(y)):
                raise ParameterError("y contains non-finite entries")
            object.__setattr__(self, "y", _frozen_array(y))

        if self.strata is not None:
            s = np.asarray(self.strata, dtype=int)
            if s.shape != (x.shape[0],):
                raise ParameterError("strata labels must have one entry per unit")
            labels = np.unique(s)
            h = labels.size
            if not np.array_equal(labels, np.arange(1, h + 1)):
                raise ParameterError(
                    "strata labels must be contiguous integers 1..H with every stratum non-empty"
                )
            object.__setattr__(self, "strata", _frozen_array(s, dtype=int))

    @property
    def n_units(self) -> int:
        return self.x.shape[0]

    @property
    def n_aux(self) -> int:
        return self.x.shape[1]

    @property
    def n_strata(self) -> int:
        if self.strata is None:
            return 0
        return int(self.strata.max())

    def total(self) -> float:
        """Population total of the survey variable."""
        if self.y is None:
            raise ParameterError("population has no survey variable")
        return float(self.y.sum())

    def stratum_sizes(self) -> np.ndarray:
        if self.strata is None:
            raise ParameterError("population has no strata labels")
        return np.bincount(self.strata, minlength=self.n_strata + 1)[1:]


@dataclass(frozen=True)
class DgpModel:
    """Which survey-variable formula to apply, its noise setting, and a seed.

    ``noise_scale=None`` uses the default for the variant; ``noise_scale=0``
    yields the noiseless version.
    """

    variant: str
    noise_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in STRUCTURAL_COLUMNS:
            raise ParameterError(f"unknown model variant {self.variant!r}")
        if self.noise_scale is not None and not self.noise_scale >= 0:
            raise ParameterError("noise_scale must be nonnegative")

    @property
    def resolved_noise_scale(self) -> float:
        if self.noise_scale is None:
            return DEFAULT_NOISE_SCALE[self.variant]
        return float(self.noise_scale)


def generate_auxiliary(
    n_units: int,
    n_aux: int,
    rho: float,
    seed: int,
    *,
    loc: float = 180.0,
    scale: float = 40.0,
) -> FinitePopulation:
    """Synthesise a lag-correlated, nonnegative auxiliary matrix.

    Columns follow a first-order autoregressive construction so that the
    correlation between columns j and k is approximately ``rho ** |j - k|``,
    then each value is shifted and scaled to ``loc + scale * z`` and clipped
    at zero to stay consumption-like.  Deterministic given ``seed``.
    """
    if n_units < 2:
        raise ParameterError("need at least 2 units")
    if n_aux < 1:
        raise ParameterError("need at least 1 auxiliary column")
    if not 0.0 <= rho < 1.0:
        raise ParameterError("rho must lie in [0, 1)")
    if scale <= 0:
        raise ParameterError("scale must be positive")
    rng = np.random.default_rng(seed)
    z = np.empty((n_units, n_aux))
    z[:, 0] = rng.standard_normal(n_units)
    innov = math.sqrt(1.0 - rho * rho)
    for j in range(1, n_aux):
        z[:, j] = rho * z[:, j - 1] + innov * rng.standard_normal(n_units)
    x = np.clip(loc + scale * z, 0.0, None)
    return FinitePopulation(ids=np.arange(1, n_units + 1), x=x)


def _check_y2_thresholds(x: np.ndarray) -> None:
    # Step terms degenerate to constants when a cut point falls outside the
    # bulk of the column; warn so the caller can rescale.
    n = x.shape[0]
    for col, cut in _Y2_THRESHOLDS:
        share = float(np.count_nonzero(x[:, col] > cut)) / n
        if not 0.05 < share < 0.95:
            warnings.warn(
                f"Y2 cut point {cut} on column {col + 1} is nearly degenerate "
                f"(share above it: {share:.3f}); rescale the auxiliary columns",
                stacklevel=3,
            )


def generate_survey_variable(pop: FinitePopulation, model: DgpModel) -> FinitePopulation:
    """Attach a survey variable to ``pop`` according to ``model``.

    Y1 is linear in the first three columns, Y2 adds step terms, Y3 is a
    squared cosine of a linear index with re-centred exponential errors, and
    Y4 is a quadratic standardised to have empirical variance 9 over the
    population before noise.
    """
    variant = model.variant
    if pop.n_aux < _MIN_COLUMNS[variant]:
        raise ParameterError(
            f"{variant} needs at least {_MIN_COLUMNS[variant]} auxiliary columns, got {pop.n_aux}"
        )
    rng = np.random.default_rng(model.seed)
    x = pop.x
    noise = model.resolved_noise_scale

    if variant == "Y1":
        mu = 400.0 + 2.0 * x[:, 0] + x[:, 1] + 2.0 * x[:, 2]
        eps = rng.normal(0.0, math.sqrt(noise), pop.n_units) if noise > 0 else 0.0
    elif variant == "Y2":
        _check_y2_thresholds(x)
        mu = (
            500.0
            + 2.0 * x[:, 3]
            + 400.0 * (x[:, 4] > 156.0)
            - 400.0 * (x[:, 4] <= 156.0)
            + 1000.0 * (x[:, 1] > 190.0)
            + 300.0 * (x[:, 4] > 200.0)
        )
        eps = rng.normal(0.0, math.sqrt(noise), pop.n_units) if noise > 0 else 0.0
    elif variant == "Y3":
        mu = 1.0 + np.cos(2.0 * x[:, 0] + x[:, 1] + 2.0 * x[:, 2]) ** 2
        if noise > 0:
            eps = rng.exponential(noise, pop.n_units)
            eps = eps - eps.mean()
        else:
            eps = 0.0
    else:  # Y4
        quad = (x[:, 0] + x[:, 1]) ** 2
        var = float(quad.var())
        if var <= 0:
            raise ParameterError("Y4 quadratic term is constant over the population")
        mu = 4.0 + 3.0 * quad / math.sqrt(var)
        eps = rng.normal(0.0, math.sqrt(noise), pop.n_units) if noise > 0 else 0.0

    return FinitePopulation(ids=pop.ids, x=pop.x, y=mu + eps, strata=pop.strata)


def assign_strata_by_quantile(pop: FinitePopulation, column: int, n_strata: int) -> FinitePopulation:
    """Label units 1..H by equal-quantile groups of one auxiliary column.

    Rank ties are broken by unit order, so every stratum is non-empty and
    sizes differ by at most one.
    """
    if not 0 <= column < pop.n_aux:
        raise ParameterError(f"column {column} out of range")
    if not 1 <= n_strata <= pop.n_units:
        raise ParameterError("need 1 <= n_strata <= N")
    order = np.argsort(pop.x[:, column], kind="stable")
    ranks = np.empty(pop.n_units, dtype=int)
    ranks[order] = np.arange(pop.n_units)
    labels = (ranks * n_strata) // pop.n_units + 1
    return FinitePopulation(ids=pop.ids, x=pop.x, y=pop.y, strata=labels)


@dataclass(frozen=True)
class ColumnSchema:
    """Column roles for delimited population files.

    ``x=None`` assigns every column not claimed by another role, in file
    order.  Role names must match the header exactly.
    """

    x: tuple[str, ...] | None = None
    y: str | None = None
    strata: str | None = None
    ids: str | None = None


#: Schema applied when none is given: reserved header names take their role,
#: every other column is auxiliary.
DEFAULT_SCHEMA = ColumnSchema(y="y", strata="stratum", ids="id")


def _parse_cell(raw: str, row: int, name: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise LoadError(f"row {row}, column {name!r}: non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise LoadError(f"row {row}, column {name!r}: non-finite value {raw!r}")
    return value


def load_population(path: str | Path, schema: ColumnSchema | None = None) -> FinitePopulation:
    """Read a comma-separated population file with a header row."""
    path = Path(path)
    if not path.exists():
        raise LoadError(f"population file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row]

    if schema is None:
        present = set(header)
        schema = ColumnSchema(
            y="y" if "y" in present else None,
            strata="stratum" if "stratum" in present else None,
            ids="id" if "id" in present else None,
        )
    roles: dict[str, str] = {}
    for role, name in (("y", schema.y), ("strata", schema.strata), ("ids", schema.ids)):
        if name is not None:
            if name not in header:
                raise LoadError(f"{path}: column {name!r} not in header")
            roles[name] = role
    if schema.x is None:
        x_names = [h for h in header if h not in roles]
    else:
        x_names = list(schema.x)
        for name in x_names:
            if name not in header:
                raise LoadError(f"{path}: column {name!r} not in header")
    if not x_names:
        raise LoadError(f"{path}: no auxiliary columns")

    col_of = {name: header.index(name) for name in header}
    n = len(rows)
    if n == 0:
        raise LoadError(f"{path}: no data rows")
    x = np.empty((n, len(x_names)))
    y = np.empty(n) if schema.y else None
    strata = np.empty(n, dtype=int) if schema.strata else None
    ids = np.empty(n, dtype=int) if schema.ids else None
    for i, row in enumerate(rows):
        rownum = i + 2  # 1-based, counting the header
        if len(row) != len(header):
            raise LoadError(f"row {rownum}: expected {len(header)} cells, got {len(row)}")
        for j, name in enumerate(x_names):
            x[i, j] = _parse_cell(row[col_of[name]], rownum, name)
        if y is not None:
            y[i] = _parse_cell(row[col_of[schema.y]], rownum, schema.y)
        if strata is not None:
            strata[i] = int(_parse_cell(row[col_of[schema.strata]], rownum, schema.strata))
        if ids is not None:
            ids[i] = int(_parse_cell(row[col_of[schema.ids]], rownum, schema.ids))
    if ids is None:
        ids = np.arange(1, n + 1)
    try:
        return FinitePopulation(ids=ids, x=x, y=y, strata=strata)
    except ParameterError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def save_population(pop: FinitePopulation, path: str | Path) -> None:
    """Write a population as comma-separated text (header: id, x1.., y, stratum)."""
    path = Path(path)
    header = ["id"] + [f"x{j + 1}" for j in range(pop.n_aux)]
    if pop.y is not None:
        header.append("y")
    if pop.strata is not None:
        header.append("stratum")
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(pop.n_units):
            row = [str(pop.ids[i])] + [f"{v:.17g}" for v in pop.x[i]]
            if pop.y is not None:
                row.append(f"{pop.y[i]:.17g}")
            if pop.strata is not None:
                row.append(str(int(pop.strata[i])))
            writer.writerow(row)
    os.replace(tmp, path)
