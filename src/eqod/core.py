"""Core domain types: grids, trajectories, library terms, support metrics,
and the seeded random streams every module draws from."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid1D",
    "Trajectory",
    "TrajectorySet",
    "LibraryTerm",
    "CoefficientVector",
    "STANDARD_TERMS",
    "term_from_tag",
    "support_from_coeffs",
    "f1_score",
    "coefficient_error",
    "SUPPORT_THRESHOLD",
    "RngStream",
    "NOISE_SEED_OFFSET",
    "CV_STREAM",
    "STABILITY_STREAM",
]

# Support threshold for turning coefficients into a term set.
SUPPORT_THRESHOLD = 1e-3

# Substream ids; RngStream's docstring maps every stream they key.
NOISE_SEED_OFFSET = 1000
CV_STREAM = 11
STABILITY_STREAM = 23


def as_index(name: str, v) -> int:
    """``operator.index(v)``: an integer, or a ValueError naming the argument."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


@dataclass(frozen=True)
class RngStream:
    """Seedable portable RNG with derived substreams.

    ``generator(*ids)`` is a PCG64 generator seeded by
    ``SeedSequence([seed, *ids])``, so identical (seed, ids) give
    identical sequences on every platform. The package draws from these
    streams and no others:

    - initial condition of trajectory i: ``(seed, i)``;
    - noise of trajectory i: ``(seed + NOISE_SEED_OFFSET, i)``;
    - the CV row permutation: ``(seed, CV_STREAM)``;
    - all stability subsamples and weights of one call: ``(seed, STABILITY_STREAM)``.

    These streams are not all independent, since their keys overlap:
    with the data seed equal to the run seed, initial condition 11 is
    the CV permutation stream and initial condition 23 is the stability
    stream, in sets of at least 12 and 24 trajectories.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", as_index("seed", self.seed))
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def generator(self, *stream: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, *stream]))
        )


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic space grid crossed with a uniform time grid.

    The spatial domain is [x0, x0 + length) with nx points; the point
    x0 + length is identified with x0 and not stored. Time runs from
    t_start to t_end inclusive with nt samples. nx and nt must be
    integers (numpy integers are stored as int).
    """

    x0: float
    length: float
    nx: int
    t_start: float
    t_end: float
    nt: int

    def __post_init__(self):
        ends = {"x0": self.x0, "length": self.length, "t_start": self.t_start, "t_end": self.t_end}
        for name, v in ends.items():
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("nx", "nt"):
            object.__setattr__(self, name, as_index(name, getattr(self, name)))
        if self.length <= 0:
            raise ValueError("domain length must be positive")
        if self.nx < 8 or self.nt < 8:
            raise ValueError("need at least 8 points in each direction")
        if self.nx % 2:
            raise ValueError(f"nx must be even for the spectral derivatives, got {self.nx}")
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")

    @property
    def dx(self) -> float:
        return self.length / self.nx

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.nt - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.nt)


@dataclass(frozen=True)
class Trajectory:
    """One field sampled on a Grid1D; values[i, j] = u(x_j, t_i), real and
    finite (a complex dtype is rejected, not cast).

    A writeable or non-float64 input is copied, so a later write by the
    caller cannot reach the checked values. A read-only float64 array is
    kept as given, without a copy: the solvers hand their own output over
    this way, and whoever holds a writeable view of it must not write.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if np.iscomplexobj(v):
            raise ValueError(f"trajectory values must be real, got dtype {v.dtype}")
        if v.dtype != np.float64 or v.flags.writeable:
            v = np.array(v, dtype=np.float64)
        if v.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.nt}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory contains non-finite values")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TrajectorySet:
    """M >= 1 trajectories sharing a single grid."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("need at least one trajectory")
        g = trajs[0].grid
        if any(t.grid != g for t in trajs[1:]):
            raise ValueError("all trajectories must share one grid")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def grid(self) -> Grid1D:
        return self.trajectories[0].grid

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)


# The name of u's d-th spatial derivative, d = 0..4, in tags.
_FACTOR_NAMES = ("u", "u_x", "u_xx", "u_xxx", "u_xxxx")


@dataclass(frozen=True, order=True)
class LibraryTerm:
    """Monomial candidate operator: a product of powers of u and its x-derivatives.

    ``powers[d]`` is the exponent of the d-th spatial derivative, d = 0..4,
    so u*u_x is (1, 1, 0, 0, 0) and u^2*u_x is (2, 1, 0, 0, 0). Each power
    must be an integer (numpy integers are stored as int).
    """

    powers: tuple[int, int, int, int, int]

    def __post_init__(self):
        powers = tuple(as_index("term power", p) for p in self.powers)
        if len(powers) != 5 or any(p < 0 for p in powers) or sum(powers) == 0:
            raise ValueError(f"invalid term powers {self.powers}")
        object.__setattr__(self, "powers", powers)

    @property
    def tag(self) -> str:
        parts = []
        for name, p in zip(_FACTOR_NAMES, self.powers):
            if p == 1:
                parts.append(name)
            elif p > 1:
                parts.append(f"{name}^{p}")
        return "*".join(parts)

    @property
    def derivative_order(self) -> int:
        return max((d for d, p in enumerate(self.powers) if p > 0), default=0)

    @property
    def power(self) -> int:
        return sum(self.powers)

    def __repr__(self):
        return f"LibraryTerm({self.tag})"


def term_from_tag(tag: str) -> LibraryTerm:
    """Parse a term's ASCII tag, e.g. "u_xx", "u*u_x" or "u^2*u_x"."""
    powers = [0, 0, 0, 0, 0]
    for part in tag.split("*"):
        name, _, exp = part.partition("^")
        if name not in _FACTOR_NAMES:
            raise ValueError(f"unknown term tag {tag!r}")
        powers[_FACTOR_NAMES.index(name)] += int(exp) if exp else 1
    return LibraryTerm(tuple(powers))


# The standard 10-term candidate set, in canonical column order.
STANDARD_TERMS: tuple[LibraryTerm, ...] = tuple(
    map(term_from_tag, ("u", "u^2", "u^3", "u_x", "u_xx", "u_xxx", "u_xxxx", "u*u_x", "u*u_xx", "u^2*u_x"))
)


@dataclass(frozen=True)
class CoefficientVector:
    """Ordered (term, value) pairs over a term list."""

    terms: tuple[LibraryTerm, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.terms),):
            raise ValueError("one value per term required")
        if not np.all(np.isfinite(v)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_dict(cls, entries: dict, terms: tuple[LibraryTerm, ...] = STANDARD_TERMS):
        """Build a vector over ``terms`` from a {term-or-tag: value} mapping."""
        keyed = {
            (term_from_tag(k) if isinstance(k, str) else k): v for k, v in entries.items()
        }
        unknown = set(keyed) - set(terms)
        if unknown:
            raise ValueError(f"terms not in target ordering: {sorted(t.tag for t in unknown)}")
        return cls(terms, np.array([keyed.get(t, 0.0) for t in terms]))

    def as_dict(self) -> dict[LibraryTerm, float]:
        return dict(zip(self.terms, self.values))

    def value(self, term: LibraryTerm) -> float:
        d = self.as_dict()
        return float(d.get(term, 0.0))


def support_from_coeffs(coeffs: CoefficientVector, threshold: float = SUPPORT_THRESHOLD) -> frozenset:
    """Terms whose coefficient magnitude strictly exceeds ``threshold``."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    return frozenset(t for t, v in zip(coeffs.terms, coeffs.values) if abs(v) > threshold)


def f1_score(pred, truth):
    """Term-level precision, recall, and F1 of a predicted support.

    Precision is defined as 0 for an empty prediction, and F1 is 0 when
    precision + recall vanishes. An empty truth set is an error since
    recall would be undefined.
    """
    pred = frozenset(pred)
    truth = frozenset(truth)
    if not truth:
        raise ValueError("truth support must be nonempty")
    tp = len(pred & truth)
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(truth)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def coefficient_error(est: CoefficientVector, truth: CoefficientVector) -> float:
    """Mean absolute coefficient error over the standard 10-term universe.

    Terms absent from either vector count as zero; terms outside the
    standard universe are ignored so the error stays comparable across
    library sizes.
    """
    e = est.as_dict()
    t = truth.as_dict()
    return float(
        np.mean([abs(e.get(term, 0.0) - t.get(term, 0.0)) for term in STANDARD_TERMS])
    )
