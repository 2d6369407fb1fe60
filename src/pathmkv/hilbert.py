"""Truncated Hilbert-space linear algebra.

The state space H and the noise space K are truncated to one common
orthonormal basis of d coordinates, so a point of H is its (d,) coordinate
array and the noise is d wide.
All operators are diagonal in the common basis, which keeps semigroup
actions and Yosida approximations exact and cheap: everything
reduces to componentwise scalar arithmetic on eigenvalue vectors.  Every
diagonal operator generates the semigroup e^{tA}, with pseudo-contraction
bound eta = lambda_max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


def vector(x, d: int) -> np.ndarray:
    """x as a point of the d-dimensional truncation: a float (d,) array."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise ConfigurationError(f"expected a vector of shape ({d},), got shape {x.shape}")
    return x


@dataclass(frozen=True)
class SpectralOperator:
    """Diagonal operator given by its eigenvalue vector in the common basis.

    It generates e^{tA} with ||e^{tA}|| <= e^{eta t}, where eta is the largest
    eigenvalue (0.0 for an empty spectrum).
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float))
        if self.eigenvalues.ndim != 1:
            raise ConfigurationError("eigenvalues must be a 1-d array")
        self.eigenvalues.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def eta(self) -> float:
        return float(self.eigenvalues.max()) if self.eigenvalues.size else 0.0


def semigroup_apply(A: SpectralOperator, t: float, x: np.ndarray) -> np.ndarray:
    """Apply e^{tA} to x, componentwise exp(lambda_k t) * x_k.

    Exact for diagonal generators, so the semigroup law and the
    pseudo-contraction bound |e^{tA}x| <= e^{eta t}|x| hold to rounding.
    """
    if t < 0:
        raise DomainError(f"semigroup time must be nonnegative, got {t}")
    return np.exp(A.eigenvalues * t) * vector(x, A.dim)


def yosida(A: SpectralOperator, n: float) -> SpectralOperator:
    """Yosida approximation of A: eigenvalues n*lambda/(n - lambda).

    Requires n > eta so n is in the resolvent set of the (diagonal) generator.
    The result is a bounded generator with its own pseudo-contraction bound.
    """
    if n <= A.eta:
        raise DomainError(f"Yosida index must exceed eta={A.eta}, got n={n}")
    lam = A.eigenvalues
    return SpectralOperator(n * lam / (n - lam))
