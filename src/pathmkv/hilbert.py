"""Truncated Hilbert-space linear algebra.

The state space H and the noise space K are truncated to finite orthonormal
bases (d and dK coordinates).  All operators are diagonal in the common basis,
which keeps semigroup actions, adjoints and Yosida approximations exact and
cheap: everything reduces to componentwise scalar arithmetic on eigenvalue
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

GENERATOR = "generator"
BOUNDED = "bounded"

_KINDS = (GENERATOR, BOUNDED)


@dataclass(frozen=True)
class SpaceSpec:
    """Truncation dimensions: d for the state space H, dK for the noise space K."""

    d: int
    dK: int | None = None

    def __post_init__(self):
        if self.dK is None:
            object.__setattr__(self, "dK", self.d)
        if self.d < 1 or self.dK < 1:
            raise ConfigurationError(f"space dimensions must be >= 1, got d={self.d}, dK={self.dK}")


@dataclass(frozen=True)
class HilbertVec:
    """Coordinate vector against the fixed orthonormal basis e_1..e_d."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))
        if self.coords.ndim != 1:
            raise ConfigurationError("HilbertVec coordinates must be a 1-d array")
        self.coords.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __mul__(self, scalar: float) -> "HilbertVec":
        return HilbertVec(self.coords * float(scalar))

    __rmul__ = __mul__


def _check_dim(da, db):
    if da != db:
        raise ConfigurationError(f"dimension mismatch: {da} vs {db}")


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal operator given by its eigenvalue vector in the common basis.

    kind = "generator" marks (possibly unbounded in spirit) generators of a
    pseudo-contraction semigroup ||e^{tA}|| <= e^{eta t}; eta is stored and
    validated against the eigenvalues rather than silently recomputed.
    """

    eigenvalues: np.ndarray
    kind: str = BOUNDED
    eta: float | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        if self.eigenvalues.ndim != 1:
            raise ConfigurationError("eigenvalues must be a 1-d array")
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown operator kind {self.kind!r}")
        self.eigenvalues.setflags(write=False)
        if self.kind == GENERATOR:
            lam_max = float(self.eigenvalues.max()) if self.eigenvalues.size else 0.0
            if self.eta is None:
                object.__setattr__(self, "eta", lam_max)
            elif self.eta < lam_max - 1e-12:
                raise ConfigurationError(
                    f"declared pseudo-contraction bound eta={self.eta} is below "
                    f"the largest eigenvalue {lam_max}"
                )

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def hilbert_schmidt_norm(self) -> float:
        return float(np.linalg.norm(self.eigenvalues))

    def apply(self, x: HilbertVec) -> HilbertVec:
        _check_dim(self.dim, x.dim)
        return HilbertVec(self.eigenvalues * x.coords)


def semigroup_apply(A: SpectralOperator, t: float, x: HilbertVec) -> HilbertVec:
    """Apply e^{tA} to x, componentwise exp(lambda_k t) * x_k.

    Exact for diagonal generators, so the semigroup law and the
    pseudo-contraction bound |e^{tA}x| <= e^{eta t}|x| hold to rounding.
    """
    if A.kind != GENERATOR:
        raise ConfigurationError("semigroup_apply requires a generator operator")
    if t < 0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    _check_dim(A.dim, x.dim)
    return HilbertVec(np.exp(A.eigenvalues * t) * x.coords)


def yosida(A: SpectralOperator, n: float) -> SpectralOperator:
    """Yosida approximation of A: eigenvalues n*lambda/(n - lambda).

    Requires n > eta so n is in the resolvent set of the (diagonal) generator.
    The result is a bounded generator with its own pseudo-contraction bound.
    """
    if A.kind != GENERATOR:
        raise ConfigurationError("yosida requires a generator operator")
    eta = A.eta if A.eta is not None else float(A.eigenvalues.max())
    if n <= eta:
        raise DomainError(f"Yosida index must exceed eta={eta}, got n={n}")
    lam = A.eigenvalues
    lam_n = n * lam / (n - lam)
    return SpectralOperator(lam_n, kind=GENERATOR)


def adjoint_apply(F: SpectralOperator, x: HilbertVec) -> HilbertVec:
    """Apply F* to x.  Diagonal real operators are self-adjoint: F* x = F x."""
    return F.apply(x)
