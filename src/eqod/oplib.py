"""Candidate operator libraries and pointwise term evaluation: ``FieldPass``
forms a term set's fields trajectory by trajectory, each product once
per distinct chain prefix in (longest chain - 1) reused buffers, and
yields them as (term, field) pairs in chain order; ``evaluate_term``
stays public as one term's field."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .core import STANDARD_TERMS, LibraryTerm, Trajectory, as_index, term_from_tag
from .spectral import spectrum_derivatives

__all__ = [
    "LibrarySpec",
    "standard_library",
    "galilean_reduced",
    "odd_reflection_prune",
    "expanded_library",
    "FieldPass",
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
    """Ordered, duplicate-free list of candidate terms, each a LibraryTerm."""

    terms: tuple[LibraryTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("library must be nonempty")
        for t in self.terms:
            if not isinstance(t, LibraryTerm):
                raise ValueError(f"library entry {t!r} is not a LibraryTerm; parse a tag with term_from_tag")
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
    size = as_index("size", size)
    if size not in (10, 15, 20, 25, 30):
        raise ValueError("size must be one of 10, 15, 20, 25, 30")
    if size == 10:
        return standard_library()
    extras = tuple(term_from_tag(tag) for tag in _EXPANSION_TAGS[: size - 10])
    return LibrarySpec(STANDARD_TERMS + extras)


class FieldPass:
    """The pointwise (nt, nx) fields of a fixed set of terms on one grid,
    formed one trajectory at a time in buffers that every trajectory reuses.

    This is the one place where products are formed. The spatial
    derivatives the terms need are shared by every term: one real FFT of
    u (``u_hat``, when the caller has already made it) and one inverse per
    order (``spectrum_derivatives``). A term's chain lists its factors in
    order, u before u_x before u_xx, so u^2*u_x is (0, 0, 1), and its
    field is the chain's product, each factor multiplied onto the prefix
    before it: u^3 is (u*u)*u and u^2*u_x is (u*u)*u_x.

    The terms are taken in the order of their chains, which puts every
    shared prefix beside its extensions. Buffer k holds the prefix of
    length k + 2 (``out=`` on each multiply): a term reuses the prefixes
    it shares with the term before it and multiplies on from the first
    factor where the two chains differ. So each distinct prefix is
    multiplied once per trajectory, and the pass takes (longest chain - 1)
    product buffers, made once: two for the standard library's five
    products.

    Each derivative order is formed once per trajectory, when the first
    term that needs it comes, into a derivative buffer that it holds
    until the last such term has been yielded; then a later order may
    take that buffer. So the pass keeps as many derivative buffers as
    orders are ever needed at once, made once: one for the standard
    library, whose chains need u_x (u^2*u_x, u*u_x) and u_xx (u*u_xx)
    one after the other. ``scaled``, if given, is a complex (rows, nx //
    2 + 1) buffer that ``spectrum_derivatives`` multiplies each spectrum
    into, and the buffers hold as many rows as it does; left None, each
    call makes its own and the buffers hold nt rows. The walk and the
    buffers' turns are planned once per tuple of terms (``_walk``).

    Calling the pass on a trajectory yields (term, field) pairs in chain
    order, over the rows ``rows`` of it (all of them by default, at most
    the buffers' rows; ``u_hat``, if given, is their spectrum). The fields are
    read-only. A single-factor term's field is the derivative itself, and
    the field of u is a view of ``traj.values``. A product's or
    derivative's buffer is overwritten by a later term or call: use each
    field before drawing the next.
    """

    def __init__(self, terms, grid, scaled=None):
        self.grid, self.scaled = grid, scaled
        shape = (grid.nt if scaled is None else len(scaled), grid.nx)
        steps, n_buffers, n_derivs = _walk(tuple(terms))
        self._buffers = [np.empty(shape) for _ in range(n_buffers)]
        derivs = [np.empty(shape) for _ in range(n_derivs)]
        self._plan = [
            (term, chain, start, orders, tuple(derivs[k] for k in slots)) for term, chain, start, orders, slots in steps
        ]

    def __call__(self, traj: Trajectory, u_hat=None, rows=slice(None)):
        """Yield (term, field) for each term of the pass on ``traj``'s ``rows``, in chain order."""
        u = traj.values[rows]
        g, n = self.grid, len(u)
        derivs = {0: u}
        bufs = [buf[:n] for buf in self._buffers]
        scaled = None if self.scaled is None else self.scaled[:n]
        for term, chain, start, orders, into in self._plan:
            if orders:
                u_hat = np.fft.rfft(u) if u_hat is None else u_hat
                into = [buf[:n] for buf in into]
                spectrum_derivatives(u_hat, orders, g.nx, g.length, out=into, scaled=scaled)
                derivs.update(zip(orders, into))
            for k in range(start, len(chain) - 1):
                np.multiply(bufs[k - 1] if k else derivs[chain[0]], derivs[chain[k + 1]], out=bufs[k])
            out = (bufs[len(chain) - 2] if len(chain) > 1 else derivs[chain[0]]).view()
            out.flags.writeable = False
            yield term, out


@functools.lru_cache(maxsize=16)
def _walk(terms: tuple[LibraryTerm, ...]):
    """A ``FieldPass``'s plan for ``terms``, made once for the last 16 term
    tuples used: per term in chain order, (term, chain, the first product
    buffer it writes, the orders it is the first to need, the derivative
    buffer each takes), then the numbers of product and derivative
    buffers."""
    chains = {t: tuple(d for d, p in enumerate(t.powers) for _ in range(p)) for t in terms}
    walk = sorted(chains.items(), key=lambda item: item[1])
    last = {d: i for i, (_, chain) in enumerate(walk) for d in chain if d}
    # The product buffers before a term's first hold the prefixes that its
    # chain shares with the chain before it. An order takes a free
    # derivative buffer when it is first needed and frees it after its
    # last term.
    steps, before, held, free, n_derivs = [], (), {}, [], 0
    for i, (term, chain) in enumerate(walk):
        shared = len(list(takewhile(lambda pair: pair[0] == pair[1], zip(before, chain))))
        new = tuple(sorted({d for d in chain if d} - held.keys()))
        for d in new:
            if not free:
                free.append(n_derivs)
                n_derivs += 1
            held[d] = free.pop()
        steps.append((term, chain, max(shared - 1, 0), new, tuple(held[d] for d in new)))
        free += [held.pop(d) for d in sorted(held) if last[d] == i]
        before = chain
    n_buffers = max(map(len, chains.values()), default=1) - 1
    return tuple(steps), n_buffers, n_derivs


def evaluate_term(traj: Trajectory, term: LibraryTerm) -> np.ndarray:
    """Pointwise (nt, nx) field of one candidate term: the one-term ``FieldPass``.
    Applied to noisy data this is deliberately the same path the weak-form
    assembly uses."""
    ((_, field),) = FieldPass((term,), traj.grid)(traj)
    return field
