"""Candidate operator libraries and pointwise term evaluation: ``term_fields``
is the many-term entry, and ``evaluate_term`` stays public as one term's field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STANDARD_TERMS, LibraryTerm, Trajectory, term_from_tag
from .spectral import spectrum_derivatives

__all__ = [
    "LibrarySpec",
    "standard_library",
    "galilean_reduced",
    "odd_reflection_prune",
    "expanded_library",
    "term_fields",
    "evaluate_term",
]

U = term_from_tag("u")
U2 = term_from_tag("u^2")
U3 = term_from_tag("u^3")
U_UXX = term_from_tag("u*u_xx")

# Extra cross-terms and higher-order products appended, in this fixed
# order, when the standard library is grown past 10 entries.
_EXPANSION_TAGS = (
    "u^4", "u*u_xxx", "u*u_xxxx", "u^2*u_xx", "u^3*u_x",
    "u_x^2", "u_x*u_xx", "u_x*u_xxx", "u_xx^2", "u^2*u_xxx",
    "u^3*u_xx", "u^5", "u_x^3", "u*u_x*u_xx", "u^2*u_x^2",
    "u_xx*u_xxx", "u^4*u_x", "u_x*u_xxxx", "u^3*u_xxx", "u*u_xx^2",
)


@dataclass(frozen=True)
class LibrarySpec:
    """Ordered, duplicate-free list of candidate terms."""

    terms: tuple[LibraryTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("library must be nonempty")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("library contains duplicate terms")

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: LibraryTerm) -> bool:
        return term in self.terms

    @property
    def tags(self) -> tuple[str, ...]:
        return tuple(t.tag for t in self.terms)

    def index(self, term: LibraryTerm) -> int:
        return self.terms.index(term)


def standard_library() -> LibrarySpec:
    """The canonical 10-term candidate set."""
    return LibrarySpec(STANDARD_TERMS)


def galilean_reduced() -> LibrarySpec:
    """The 7-term library admissible under a detected Galilean boost.

    Pure powers of u cannot appear in a boost-invariant equation, so
    u, u^2, and u^3 are dropped; the remaining exclusions are left to
    the sparse regression.
    """
    keep = tuple(t for t in STANDARD_TERMS if t not in (U, U2, U3))
    return LibrarySpec(keep)


def odd_reflection_prune(spec: LibrarySpec) -> LibrarySpec:
    """Drop the parity-incompatible terms u*u_xx and (if present) u^2."""
    keep = tuple(t for t in spec.terms if t not in (U_UXX, U2))
    return spec if keep == spec.terms else LibrarySpec(keep)


def expanded_library(size: int) -> LibrarySpec:
    """Standard library grown to 15..30 terms with fixed extra products."""
    if size not in (10, 15, 20, 25, 30):
        raise ValueError("size must be one of 10, 15, 20, 25, 30")
    if size == 10:
        return standard_library()
    extras = tuple(term_from_tag(tag) for tag in _EXPANSION_TAGS[: size - 10])
    return LibrarySpec(STANDARD_TERMS + extras)


def term_fields(traj: Trajectory, terms, u_hat=None):
    """Yield the pointwise (nt, nx) field of each term, in order.

    This is the one place where products are formed: ``assemble`` takes
    the fields of its product terms from here (its single-derivative
    columns come from the time-contracted spectrum instead), and
    ``evaluate_term`` is the one-term case. The spatial derivatives the
    terms need are shared by every term: one real FFT of u (``u_hat``,
    when the caller has already made it) and one inverse per order
    (``spectrum_derivatives``). Each product is formed in physical space
    by repeated multiplication, so u^3 is u*u*u. Applied to noisy data
    this is deliberately the same path the weak-form assembly uses.

    The fields are read-only: a single-factor term's field is the
    derivative buffer itself, and the field of u is a view of
    ``traj.values``.
    """
    terms = tuple(terms)
    u = traj.values
    g = traj.grid
    orders = sorted({d for term in terms for d, p in enumerate(term.powers) if d and p})
    derivs = {}
    if orders:
        u_hat = np.fft.rfft(u) if u_hat is None else u_hat
        derivs = dict(zip(orders, spectrum_derivatives(u_hat, orders, g.nx, g.length)))
    derivs[0] = u
    for term in terms:
        out = None
        for d, p in enumerate(term.powers):
            for _ in range(p):
                out = derivs[d] if out is None else out * derivs[d]
        out = out.view()
        out.flags.writeable = False
        yield out


def evaluate_term(traj: Trajectory, term: LibraryTerm) -> np.ndarray:
    """Pointwise (nt, nx) field of one candidate term: the one-term case of ``term_fields``."""
    return next(term_fields(traj, (term,)))
