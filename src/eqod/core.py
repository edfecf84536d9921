"""Core domain types: grids, trajectories, library terms, support metrics,
and the seeded random streams every module draws from."""

from __future__ import annotations

import math
import numbers
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
    "NUMERICAL_FAILURES",
]

# Support threshold for turning coefficients into a term set.
SUPPORT_THRESHOLD = 1e-3

# Substream ids; RngStream's docstring maps every stream they key.
NOISE_SEED_OFFSET = 1000
CV_STREAM = 11
STABILITY_STREAM = 23

# The errors a numerical stage may raise on bad data and that a pipeline
# stage survives (a detector downgrades, the reduced path falls back);
# any other exception is a programming error and propagates.
NUMERICAL_FAILURES = (ValueError, np.linalg.LinAlgError, FloatingPointError)


# The number policy of every public entry: an index is as_index's, a
# scalar as_real's and an array as_reals' (or frozen_reals' when it is
# kept). Each raises ValueError naming the argument; none casts a bool,
# a complex number, an object or text into a number.


def as_index(name: str, v) -> int:
    """``operator.index(v)``: an integer that is not a bool, or a
    ValueError naming the argument."""
    try:
        return operator.index(None if isinstance(v, bool) else v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


def as_real(name: str, v) -> float:
    """``float(v)`` of a finite real number that is not a bool, or a
    ValueError naming the argument; a 0-d array is not a number here."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite real number, got {v!r}")
    return float(v)


def as_reals(name: str, v) -> np.ndarray:
    """``v`` as a float64 array of finite values, or a ValueError naming
    the argument. Integer and float dtypes are cast, and a float64 array
    comes back as itself; a bool, complex, object or text dtype is
    rejected, not cast."""
    a = np.asarray(v)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
    return a


def frozen_reals(name: str, v) -> np.ndarray:
    """A read-only copy of ``as_reals(name, v)``: no write, to ``v`` or
    to the copy, can change it."""
    a = as_reals(name, v).copy()
    a.flags.writeable = False
    return a


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
    t_start to t_end inclusive with nt samples. The ends are stored as
    floats (``as_real``), and nx and nt as ints (``as_index``).
    """

    x0: float
    length: float
    nx: int
    t_start: float
    t_end: float
    nt: int

    def __post_init__(self):
        for name in ("x0", "length", "t_start", "t_end"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One field sampled on a Grid1D; values[i, j] = u(x_j, t_i), real and
    finite (``as_reals``: a complex dtype is rejected, not cast).

    The values are kept as a read-only float64 copy (``frozen_reals``), so
    no write, to the input or to ``values``, can change a trajectory once
    it is checked. Trajectories compare and hash by identity.
    """

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, Grid1D):
            raise ValueError(f"grid must be a Grid1D, got {self.grid!r}")
        v = frozen_reals("trajectory values", self.values)
        if v.shape != (self.grid.nt, self.grid.nx):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({self.grid.nt}, {self.grid.nx})"
            )
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """M >= 1 Trajectory objects sharing a single grid, compared and hashed by identity."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("need at least one trajectory")
        bad = [type(t).__name__ for t in trajs if not isinstance(t, Trajectory)]
        if bad:
            raise ValueError(f"trajectories must be Trajectory objects, got {bad}")
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
    """Parse a term's ASCII tag, e.g. "u_xx", "u*u_x" or "u^2*u_x". An
    exponent, when given, is a positive number in ASCII digits."""
    powers = [0, 0, 0, 0, 0]
    for part in tag.split("*"):
        name, caret, exp = part.partition("^")
        if name not in _FACTOR_NAMES or caret and not (exp.isascii() and exp.isdecimal() and int(exp) > 0):
            raise ValueError(f"unknown term tag {tag!r}")
        powers[_FACTOR_NAMES.index(name)] += int(exp or 1)
    return LibraryTerm(tuple(powers))


# The standard 10-term candidate set, in canonical column order.
STANDARD_TERMS: tuple[LibraryTerm, ...] = tuple(
    map(term_from_tag, ("u", "u^2", "u^3", "u_x", "u_xx", "u_xxx", "u_xxxx", "u*u_x", "u*u_xx", "u^2*u_x"))
)


@dataclass(frozen=True)
class CoefficientVector:
    """Ordered (term, value) pairs over a term list, as a value.

    The terms must be distinct LibraryTerms. The values are kept as a
    read-only float64 copy (``frozen_reals``), so no write can change a
    vector once it is made. Two vectors are equal, and hash
    alike, when their terms are equal and their values have the same
    bytes, so a PdeSpec that holds one hashes too.
    """

    terms: tuple[LibraryTerm, ...]
    values: np.ndarray = field(compare=False)
    _values: bytes = field(init=False, repr=False)  # the values' bytes, which equality reads

    def __post_init__(self):
        terms = tuple(self.terms)
        bad = [t for t in terms if not isinstance(t, LibraryTerm)]
        if bad:
            raise ValueError(f"terms must be LibraryTerms, got {bad!r}")
        if len(set(terms)) != len(terms):
            raise ValueError(f"terms named twice: {sorted({t.tag for t in terms if terms.count(t) > 1})}")
        object.__setattr__(self, "terms", terms)
        v = frozen_reals("coefficient values", self.values)
        if v.shape != (len(terms),):
            raise ValueError("one value per term required")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "_values", v.tobytes())

    @classmethod
    def from_dict(cls, entries: dict, terms: tuple[LibraryTerm, ...] = STANDARD_TERMS):
        """Build a vector over ``terms`` from a {term-or-tag: value} mapping;
        a term named twice, as a tag and as a term, or a key that is
        neither, is an error."""
        bad = [k for k in entries if not isinstance(k, (str, LibraryTerm))]
        if bad:
            raise ValueError(f"keys that are neither a term tag nor a LibraryTerm: {bad!r}")
        keys = [term_from_tag(k) if isinstance(k, str) else k for k in entries]
        keyed = dict(zip(keys, entries.values()))
        if len(keyed) != len(keys):
            raise ValueError(f"terms named twice: {sorted({t.tag for t in keys if keys.count(t) > 1})}")
        unknown = set(keyed) - set(terms)
        if unknown:
            raise ValueError(f"terms not in target ordering: {sorted(t.tag for t in unknown)}")
        return cls(terms, [as_real(f"coefficient of {t.tag}", keyed.get(t, 0.0)) for t in terms])

    def as_dict(self) -> dict[LibraryTerm, float]:
        return dict(zip(self.terms, self.values))

    def value(self, term: LibraryTerm) -> float:
        d = self.as_dict()
        return float(d.get(term, 0.0))


def support_from_coeffs(coeffs: CoefficientVector, threshold: float = SUPPORT_THRESHOLD) -> frozenset:
    """Terms whose coefficient magnitude strictly exceeds ``threshold``."""
    # Not as_real: +inf is a valid threshold, and gives the empty support.
    if not threshold > 0:  # a NaN threshold is rejected too
        raise ValueError(f"threshold must be positive, got {threshold!r}")
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
