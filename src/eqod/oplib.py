"""Candidate operator libraries and pointwise term evaluation: ``FieldPass``
forms a term list's fields trajectory by trajectory in reused buffers,
``term_fields`` is one trajectory's pass, and ``evaluate_term`` stays
public as one term's field."""

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
    "FieldPass",
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


class FieldPass:
    """The pointwise (nt, nx) fields of a fixed list of terms on one grid,
    formed one trajectory at a time in buffers that every trajectory reuses.

    This is the one place where products are formed. The spatial
    derivatives the terms need are shared by every term: one real FFT of
    u (``u_hat``, when the caller has already made it) and one inverse per
    order (``spectrum_derivatives``). Each product is a chain of factors,
    u before u_x before u_xx, each multiplied onto the one before it, so
    u^3 is (u*u)*u and u^2*u_x is (u*u)*u_x. Terms whose chains share a
    prefix share its field: both of these extend the one field of u^2, and
    each product is bitwise the full chain formed on its own.

    The products go into the buffers of this pass (``out=`` on each
    multiply): a buffer is free again once no later term of the list
    extends the field it holds, so the standard library's five products
    take two buffers, made once for all trajectories. The fields are
    read-only. A single-factor term's field is the derivative itself, and
    the field of u is a view of ``traj.values``. A product's buffer is
    overwritten by a later product or trajectory: use each field before
    drawing the next.
    """

    def __init__(self, terms, grid):
        terms = tuple(terms)
        self.grid = grid
        self.orders = sorted({d for t in terms for d, p in enumerate(t.powers) if d and p})
        chains = [tuple(d for d, p in enumerate(t.powers) for _ in range(p)) for t in terms]
        last = {}  # a prefix field's last user, by term index
        for i, chain in enumerate(chains):
            for n in range(2, len(chain) + 1):
                last[chain[:n]] = i
        slot, free, n_slots = {}, [], 0
        # Per term: its multiplies (out slot, prefix slot or None for the
        # first factor, factor order) and its field (a slot, or an order).
        self._plan = []
        for i, chain in enumerate(chains):
            steps = []
            for n in range(2, len(chain) + 1):
                if chain[:n] in slot:
                    continue
                if not free:
                    free.append(n_slots)
                    n_slots += 1
                slot[chain[:n]] = free.pop()
                steps.append((slot[chain[:n]], slot.get(chain[: n - 1]), chain[n - 1]))
            self._plan.append((steps, slot[chain] if len(chain) > 1 else None, chain[0]))
            for key in [k for k in slot if last[k] == i]:
                free.append(slot.pop(key))
        self._buffers = [np.empty((grid.nt, grid.nx)) for _ in range(n_slots)]

    def __call__(self, traj: Trajectory, u_hat=None):
        """Yield the field of each term of the pass on ``traj``, in order."""
        u = traj.values
        g = self.grid
        derivs = {}
        if self.orders:
            u_hat = np.fft.rfft(u) if u_hat is None else u_hat
            derivs = dict(zip(self.orders, spectrum_derivatives(u_hat, self.orders, g.nx, g.length)))
        derivs[0] = u
        bufs = self._buffers
        for steps, field, first in self._plan:
            for out, prefix, d in steps:
                np.multiply(derivs[first] if prefix is None else bufs[prefix], derivs[d], out=bufs[out])
            out = (derivs[first] if field is None else bufs[field]).view()
            out.flags.writeable = False
            yield out


def term_fields(traj: Trajectory, terms, u_hat=None):
    """Yield the pointwise (nt, nx) field of each term, in order: one
    trajectory's ``FieldPass``, whose rules the fields follow (``u_hat``,
    when given, is rfft(u)). Use each field before drawing the next.
    Applied to noisy data this is deliberately the same path the weak-form
    assembly uses."""
    return FieldPass(terms, traj.grid)(traj, u_hat)


def evaluate_term(traj: Trajectory, term: LibraryTerm) -> np.ndarray:
    """Pointwise (nt, nx) field of one candidate term: the one-term case of ``term_fields``."""
    return next(term_fields(traj, (term,)))
