"""Sampling designs, inclusion probabilities, and an exhaustive SRSWOR oracle."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import AllocationError, DesignError, ParameterError, SizeError
from .population import FinitePopulation, array_eq

#: Smallest sample size an optimally allocated stratum may receive.
MIN_OPTIMAL_STRATUM_SIZE = 2

#: Largest number of subsets the exhaustive oracle will enumerate.
MAX_ENUMERATION = 1_000_000


def substream(*keys: int) -> np.random.Generator:
    """Counter-based stream: the generator keyed by an integer tuple.

    Replicate r of a run seeded with m uses ``substream(m, r)``, so streams
    are reproducible and independent across replicates.
    """
    keys = tuple(int(k) for k in keys)
    if any(k < 0 for k in keys):
        raise ParameterError("stream keys must be nonnegative integers")
    return np.random.default_rng(np.random.SeedSequence(keys))


@dataclass(frozen=True)
class Srswor:
    """Simple random sampling without replacement of a fixed size n."""

    n: int


@dataclass(frozen=True)
class StratifiedSrs:
    """Independent SRSWOR within strata.

    ``allocation`` is ``"proportional"`` or ``"optimal"``; the latter uses
    Neyman allocation on the within-stratum standard deviation of auxiliary
    column ``aux_column``.
    """

    n: int
    allocation: str = "proportional"
    aux_column: int | None = None

    def __post_init__(self):
        if self.allocation not in ("proportional", "optimal"):
            raise ParameterError(f"unknown allocation {self.allocation!r}")
        if self.allocation == "optimal" and self.aux_column is None:
            raise ParameterError("optimal allocation needs aux_column")


SamplingDesign = Union[Srswor, StratifiedSrs]


@dataclass(frozen=True)
class DrawnSample:
    """Selected unit positions with first-order inclusion probabilities."""

    indices: np.ndarray
    pi: np.ndarray

    __eq__ = array_eq

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        pi = np.asarray(self.pi, dtype=float)
        if idx.ndim != 1 or pi.shape != idx.shape:
            raise ParameterError("indices and pi must be 1-d and aligned")
        if idx.size == 0:
            raise ParameterError("sample is empty")
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        pi = pi[order]
        if np.any(idx[1:] == idx[:-1]):
            raise ParameterError("sample contains duplicate units")
        if not np.all((pi > 0) & (pi <= 1)):
            raise ParameterError("inclusion probabilities must lie in (0, 1]")
        arr_idx = np.array(idx)
        arr_idx.flags.writeable = False
        arr_pi = np.array(pi)
        arr_pi.flags.writeable = False
        object.__setattr__(self, "indices", arr_idx)
        object.__setattr__(self, "pi", arr_pi)

    @property
    def n(self) -> int:
        return self.indices.size

    @property
    def weights(self) -> np.ndarray:
        """Design weights 1 / pi."""
        return 1.0 / self.pi


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    """Round nonnegative quotas to integers summing to ``total``.

    Floors first, then hands the remainder to the largest fractional parts
    (ties to the lowest index).
    """
    floors = np.floor(quotas).astype(int)
    short = total - int(floors.sum())
    if short > 0:
        frac = quotas - floors
        for j in np.argsort(-frac, kind="stable")[:short]:
            floors[j] += 1
    return floors


def proportional_allocation(stratum_sizes: Sequence[int], n: int) -> np.ndarray:
    """Stratum sample sizes proportional to stratum population sizes.

    Largest-remainder rounding keeps the total exactly n, and every stratum
    receives at least one unit.
    """
    sizes = np.asarray(stratum_sizes, dtype=int)
    if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
        raise ParameterError("stratum sizes must be positive integers")
    h = sizes.size
    total = int(sizes.sum())
    if n > total:
        raise AllocationError(f"n={n} exceeds population size {total}")
    if n < h:
        raise AllocationError(f"n={n} cannot give each of {h} strata one unit")
    alloc = _largest_remainder(n * sizes / total, n)
    # Fix boundary violations deterministically: feed empty strata from the
    # largest allocation, shed any excess over N_h to the slackest stratum.
    while np.any(alloc < 1):
        needy = int(np.argmin(alloc))
        donor = int(np.argmax(alloc))
        alloc[needy] += 1
        alloc[donor] -= 1
    while np.any(alloc > sizes):
        over = int(np.argmax(alloc - sizes))
        room = sizes - alloc
        alloc[over] -= 1
        alloc[int(np.argmax(room))] += 1
    return alloc


def optimal_allocation(stratum_sizes: Sequence[int], stratum_sds: Sequence[float], n: int) -> np.ndarray:
    """Neyman allocation: n_h proportional to N_h * S_h.

    Largest-remainder rounding, then each stratum is clamped to
    ``[MIN_OPTIMAL_STRATUM_SIZE, N_h]`` with the remainder re-allocated among
    the unclamped strata.
    """
    sizes = np.asarray(stratum_sizes, dtype=int)
    sds = np.asarray(stratum_sds, dtype=float)
    if sizes.ndim != 1 or sizes.size == 0 or np.any(sizes < 1):
        raise ParameterError("stratum sizes must be positive integers")
    if sds.shape != sizes.shape or np.any(sds < 0) or not np.all(np.isfinite(sds)):
        raise ParameterError("stratum sds must be nonnegative reals, one per stratum")
    if not np.any(sds > 0):
        raise ParameterError("at least one stratum sd must be positive")
    h = sizes.size
    lo = np.minimum(MIN_OPTIMAL_STRATUM_SIZE, sizes)
    if n < int(lo.sum()):
        raise AllocationError(f"n={n} is below the clamped minimum {int(lo.sum())}")
    if n > int(sizes.sum()):
        raise AllocationError(f"n={n} exceeds population size {int(sizes.sum())}")

    alloc = np.zeros(h, dtype=int)
    free = np.ones(h, dtype=bool)
    remaining = n
    while True:
        weights = sizes[free] * sds[free]
        wsum = weights.sum()
        if wsum > 0:
            quotas = remaining * weights / wsum
        else:
            quotas = np.full(free.sum(), remaining / free.sum())
        cand = _largest_remainder(quotas, remaining)
        idx = np.flatnonzero(free)
        low = cand < lo[idx]
        high = cand > sizes[idx]
        if not low.any() and not high.any():
            alloc[idx] = cand
            return alloc
        clamped = np.where(low, lo[idx], np.where(high, sizes[idx], cand))
        for k in np.flatnonzero(low | high):
            j = idx[k]
            alloc[j] = clamped[k]
            free[j] = False
            remaining -= int(clamped[k])
        if not free.any():
            if remaining != 0:
                raise AllocationError("allocation infeasible after clamping")
            return alloc
        if remaining < int(lo[free].sum()) or remaining > int(sizes[free].sum()):
            raise AllocationError("allocation infeasible after clamping")


def _stratum_sds(pop: FinitePopulation, column: int) -> np.ndarray:
    if not 0 <= column < pop.n_aux:
        raise ParameterError(f"aux_column {column} out of range")
    values = pop.x[:, column]
    sds = np.zeros(pop.n_strata)
    for h in range(1, pop.n_strata + 1):
        group = values[pop.strata == h]
        sds[h - 1] = group.std(ddof=1) if group.size > 1 else 0.0
    return sds


def draw(design: SamplingDesign, pop: FinitePopulation, rng: np.random.Generator) -> DrawnSample:
    """Select one sample from ``pop`` under ``design`` using ``rng``.

    SRSWOR makes all subsets of size n equiprobable with pi_i = n / N;
    stratified designs draw independently within strata with pi_i = n_h / N_h.
    """
    n_pop = pop.n_units
    if isinstance(design, Srswor):
        if not 1 <= design.n <= n_pop:
            raise DesignError(f"sample size {design.n} invalid for N={n_pop}")
        idx = np.sort(rng.choice(n_pop, size=design.n, replace=False))
        return DrawnSample(indices=idx, pi=np.full(design.n, design.n / n_pop))

    if pop.strata is None:
        raise DesignError("stratified design needs a population with strata labels")
    sizes = pop.stratum_sizes()
    if design.allocation == "proportional":
        alloc = proportional_allocation(sizes, design.n)
    else:
        alloc = optimal_allocation(sizes, _stratum_sds(pop, design.aux_column), design.n)
    picks = []
    pis = []
    for h in range(1, sizes.size + 1):
        members = np.flatnonzero(pop.strata == h)
        n_h = int(alloc[h - 1])
        if n_h > members.size:
            raise DesignError(f"stratum {h}: allocated {n_h} from {members.size} units")
        picks.append(rng.choice(members, size=n_h, replace=False))
        pis.append(np.full(n_h, n_h / members.size))
    idx = np.concatenate(picks)
    pi = np.concatenate(pis)
    order = np.argsort(idx, kind="stable")
    return DrawnSample(indices=idx[order], pi=pi[order])


@dataclass(frozen=True)
class SrsworEnumeration:
    """Every size-n subset of a size-N population, with design probabilities.

    An exhaustive oracle for unbiasedness checks on small designs: any sample
    statistic averaged over ``subsets`` with weight ``probability`` equals its
    design expectation exactly.
    """

    n_pop: int
    n: int
    subsets: tuple[tuple[int, ...], ...]
    probability: float
    pi: float
    pi_joint: float

    def samples(self) -> Iterator[DrawnSample]:
        for subset in self.subsets:
            yield DrawnSample(indices=np.array(subset), pi=np.full(self.n, self.pi))


def enumerate_srswor(n_pop: int, n: int) -> SrsworEnumeration:
    """List all C(N, n) equiprobable subsets of an SRSWOR design."""
    if not 1 <= n <= n_pop:
        raise ParameterError(f"need 1 <= n <= N, got n={n}, N={n_pop}")
    count = math.comb(n_pop, n)
    if count > MAX_ENUMERATION:
        raise SizeError(f"C({n_pop},{n}) = {count} exceeds the enumeration cap")
    subsets = tuple(itertools.combinations(range(n_pop), n))
    pi_joint = n * (n - 1) / (n_pop * (n_pop - 1)) if n_pop > 1 else 1.0
    return SrsworEnumeration(
        n_pop=n_pop,
        n=n,
        subsets=subsets,
        probability=1.0 / count,
        pi=n / n_pop,
        pi_joint=pi_joint,
    )
