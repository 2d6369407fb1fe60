"""Empirical measures on path space and the 2-Wasserstein distance.

A measure is a weighted cloud of path atoms on one shared grid.  The exact
W2 uses the sup-norm ground cost ||x - y||_T: equal-weight clouds of equal
size go through the assignment problem, general weights through the discrete
optimal-transport LP.  Both are exact at desk scale (atom counts <= 512);
larger clouds must use the sliced surrogate, whose 1-d transports are solved
exactly by a vectorized quantile coupling on the merged CDF cut points.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import CapacityError, ConfigurationError, DomainError
from .hilbert import HilbertVec
from .paths import PathGrid, TimeGrid, path_to_csv, stop_values

EXACT_ATOM_CAP = 512


@dataclass(frozen=True)
class EmpiricalPathMeasure:
    """Weighted atoms in C([0,T];H): atoms has shape (N, M+1, d), weights (N,)."""

    grid: TimeGrid
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 3 or atoms.shape[1] != self.grid.steps + 1:
            raise ConfigurationError("atoms must have shape (N, M+1, d) matching the grid")
        n = atoms.shape[0]
        if self.weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (n,):
            raise ConfigurationError("weights must have shape (N,)")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("weights must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        atoms.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[2]

    def atom_path(self, i: int) -> PathGrid:
        return PathGrid(self.grid, self.atoms[i])

    def values_at(self, t: float) -> np.ndarray:
        """Atom values at the node of t, shape (N, d)."""
        return self.atoms[:, self.grid.node(t), :]

    def mean_at(self, t: float) -> HilbertVec:
        return HilbertVec(self.weights @ self.values_at(t))

    def seminorm_sq_at(self, t: float) -> np.ndarray:
        """||x||_t^2 per atom, shape (N,)."""
        j = self.grid.node(t)
        return (self.atoms[:, : j + 1, :] ** 2).sum(axis=2).max(axis=1)

    def second_moment(self) -> float:
        """Integral of ||x||_T^2, the squared S2-type size of the measure."""
        sup_sq = (self.atoms**2).sum(axis=2).max(axis=1)
        return float(self.weights @ sup_sq)

    def w2_to_zero(self) -> float:
        """W2(mu, delta_0): exact, the only coupling pairs every atom with the zero path."""
        return float(np.sqrt(self.second_moment()))

    def replace_atom(self, i: int, path: PathGrid) -> "EmpiricalPathMeasure":
        atoms = self.atoms.copy()
        atoms[i] = path.values
        return EmpiricalPathMeasure(self.grid, atoms, self.weights)


def measure_from_paths(paths, weights=None) -> EmpiricalPathMeasure:
    grid = paths[0].grid
    atoms = np.stack([p.values for p in paths])
    return EmpiricalPathMeasure(grid, atoms, weights)


def dirac(path: PathGrid) -> EmpiricalPathMeasure:
    return EmpiricalPathMeasure(path.grid, path.values[None, :, :], np.array([1.0]))


@dataclass(frozen=True)
class EmpiricalControlMeasure:
    """Weighted atoms in the action space U, a subset of R^m: atoms (N, m), weights (N,)."""

    atoms: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        n = atoms.shape[0]
        weights = (
            np.full(n, 1.0 / n)
            if self.weights is None
            else np.asarray(self.weights, dtype=float)
        )
        if weights.shape != (n,) or np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigurationError("control weights must be nonnegative and sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms


def stopped_measure(mu: EmpiricalPathMeasure, t: float) -> EmpiricalPathMeasure:
    """Pushforward under x -> x_{. ^ t}; weights unchanged, idempotent."""
    j = mu.grid.node(t)
    return EmpiricalPathMeasure(mu.grid, stop_values(mu.atoms, j), mu.weights)


def mean_at(mu: EmpiricalPathMeasure, t: float) -> HilbertVec:
    return mu.mean_at(t)


def _sup_cost_matrix(mu: EmpiricalPathMeasure, nu: EmpiricalPathMeasure) -> np.ndarray:
    """c_ij = ||x_i - y_j||_T^2; assembled blockwise to bound the scratch
    array at ~32 MB regardless of atom counts and grid size."""
    n, m = mu.n_atoms, nu.n_atoms
    cost = np.empty((n, m))
    block = max(1, int(4e6 // (mu.atoms.shape[1] * mu.atoms.shape[2] * max(m, 1))))
    for start in range(0, n, block):
        stopi = min(start + block, n)
        diff = mu.atoms[start:stopi, None, :, :] - nu.atoms[None, :, :, :]
        cost[start:stopi] = (diff**2).sum(axis=3).max(axis=2)
    return cost


def exact_ot_cost(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray) -> float:
    """Optimal value of the discrete OT problem for a given cost matrix.

    Equal uniform weights with a square matrix reduce to the assignment
    problem; anything else is solved as the transport LP over the coupling
    polytope (one marginal constraint dropped as redundant).
    """
    n, m = cost.shape
    uniform = (
        n == m
        and np.allclose(w_row, 1.0 / n, atol=1e-15)
        and np.allclose(w_col, 1.0 / m, atol=1e-15)
    )
    if uniform:
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / n)
    # Row sums, then every column sum but the last: nm + n(m-1) nonzeros.
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.eye(n), np.ones((1, m))),
            sparse.kron(np.ones((1, n)), sparse.eye(m - 1, m)),
        ],
        format="csr",
    )
    b_eq = np.concatenate([w_row, w_col[: m - 1]])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise ConfigurationError(f"transport LP failed: {res.message}")
    return float(res.fun)


def wasserstein2(
    mu: EmpiricalPathMeasure,
    nu: EmpiricalPathMeasure,
    mode: str = "exact",
    projections: int = 512,
    seed: int = 0,
) -> float:
    """2-Wasserstein distance with sup-norm ground cost.

    exact mode solves the discrete OT problem over c_ij = ||x_i - y_j||_T^2
    and returns the square root.  sliced mode draws seeded random rank-one
    directions (a probability profile over nodes tensor a unit coordinate
    direction), solves each 1-d transport exactly by the quantile coupling on
    the merged cut points of both CDFs (no residual threshold), and returns
    sqrt(d * mean of the 1-d squared costs).  projections must be >= 1.  The
    sliced value is a cheap surrogate, not a bound; its mean reproduces the
    exact value on isotropic Gaussian clouds of time-constant paths.
    """
    if mu.grid.steps != nu.grid.steps or abs(mu.grid.T - nu.grid.T) > 1e-15 * max(mu.grid.T, 1.0):
        raise ConfigurationError("measures live on different grids; resample first")
    if mu.dim != nu.dim:
        raise ConfigurationError("measures have different state dimensions")
    if mode == "exact":
        if mu.n_atoms > EXACT_ATOM_CAP or nu.n_atoms > EXACT_ATOM_CAP:
            raise CapacityError(
                f"exact W2 capped at {EXACT_ATOM_CAP} atoms per side, "
                f"got {mu.n_atoms} x {nu.n_atoms}",
                suggestion="use mode='sliced'",
            )
        cost = _sup_cost_matrix(mu, nu)
        return float(np.sqrt(exact_ot_cost(cost, mu.weights, nu.weights)))
    if mode == "sliced":
        if projections < 1:
            raise DomainError(f"sliced W2 needs at least one projection, got {projections}")
        return _sliced_w2(mu, nu, projections, seed)
    raise DomainError(f"unknown W2 mode {mode!r}")


def _cut_points(w: np.ndarray) -> np.ndarray:
    """Cumulative weights of sorted atoms: the right ends of their quantile intervals.

    Equal weights get the exact cut points k/n; a running sum of 1/n drifts
    by ~1e-13 at n = 4000, which would pair the wrong tail atoms.
    """
    n = len(w)
    if np.all(w == w[0]):
        return np.arange(1, n + 1) / n
    return np.cumsum(w)


def _quantile_ot_sq(z1, w1, z2, w2) -> float:
    """Exact squared 1-d W2 between weighted point sets via the quantile coupling.

    The merged cut points of both CDFs split [0, 1] into intervals on which
    both quantile functions are constant; each interval couples one atom of
    either side with the interval's length as mass.  The coupling stops where
    the first side's total weight ends.
    """
    o1, o2 = np.argsort(z1, kind="stable"), np.argsort(z2, kind="stable")
    z1, c1 = z1[o1], _cut_points(w1[o1])
    z2, c2 = z2[o2], _cut_points(w2[o2])
    cuts = np.union1d(c1, c2)
    cuts = cuts[cuts <= min(c1[-1], c2[-1])]
    left = np.concatenate(([0.0], cuts[:-1]))
    i = np.searchsorted(c1, left, side="right")
    j = np.searchsorted(c2, left, side="right")
    return float((cuts - left) @ (z1[i] - z2[j]) ** 2)


def _sliced_w2(mu, nu, projections, seed) -> float:
    rng = np.random.default_rng(seed)
    n_nodes = mu.grid.steps + 1
    d = mu.dim
    total = 0.0
    for _ in range(projections):
        profile = rng.dirichlet(np.ones(n_nodes))
        e = rng.standard_normal(d)
        e /= np.linalg.norm(e)
        z_mu = np.einsum("njd,j,d->n", mu.atoms, profile, e)
        z_nu = np.einsum("njd,j,d->n", nu.atoms, profile, e)
        total += _quantile_ot_sq(z_mu, mu.weights, z_nu, nu.weights)
    return float(np.sqrt(d * total / projections))


def wasserstein2_controls(nu1: EmpiricalControlMeasure, nu2: EmpiricalControlMeasure) -> float:
    """Exact W2 between control laws on U (Euclidean ground cost); diagnostics only."""
    diff = nu1.atoms[:, None, :] - nu2.atoms[None, :, :]
    cost = (diff**2).sum(axis=2)
    return float(np.sqrt(exact_ot_cost(cost, nu1.weights, nu2.weights)))


def measure_to_csv(mu: EmpiricalPathMeasure) -> str:
    """Atom index and weight lines, each followed by the atom's path CSV block."""
    buf = io.StringIO()
    for i in range(mu.n_atoms):
        buf.write(f"atom,{i},weight,{mu.weights[i]:.17g}\n")
        buf.write(path_to_csv(mu.atom_path(i)))
    return buf.getvalue()
