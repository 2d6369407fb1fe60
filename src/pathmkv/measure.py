"""Empirical measures on path space and the 2-Wasserstein distance.

A law on path space is a StoppedView: a cloud of path atoms on one shared
grid, uniform or weighted, read stopped at a grid node.  EmpiricalPathMeasure
is the view at the last node with validated, read-only atoms and weights, and
stopped_measure builds one from any view stopped at t.  The exact
W2 uses the sup-norm ground cost ||x - y||_T: equal-weight clouds of equal
size go through the assignment problem, general weights through the discrete
optimal-transport LP.  Both are exact at desk scale (atom counts <= 512);
larger clouds must use the sliced surrogate, whose 1-d transports are solved
exactly by a vectorized quantile coupling on the merged CDF cut points.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import CapacityError, ConfigurationError, DomainError
from .paths import (
    PathGrid,
    TimeGrid,
    stop_values,
    sup_seminorm_sq_values,
)

EXACT_ATOM_CAP = 512

# (row, node, column) entries per sup-cost tile: 512 kB, so that the two
# scratch tiles of `_sup_cost_matrix` stay in a core's L2 cache.
COST_TILE_ELEMENTS = 2**16


def probability_weights(w, n: int, what: str) -> np.ndarray:
    """w as a fresh float (n,) array of nonnegative weights summing to 1 within 1e-12, or
    ConfigurationError naming `what`.  Stated positively, so that a NaN fails it."""
    w = np.array(w, dtype=float)
    if not (w.shape == (n,) and np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):
        raise ConfigurationError(
            f"{what} must be nonnegative and sum to 1 within 1e-12 with shape ({n},), got shape {w.shape}"
        )
    return w


class StoppedView:
    """Paths and their empirical law, stopped at grid node `node`: the one law
    type on path space.

    Coefficients receive it as the path batch xs and as the law mu, and every
    read clamps to the node.  Without weights it is the uniform law of a
    particle ensemble, reduced by plain means in particle order; with weights
    it reduces by `weights @`.  EmpiricalPathMeasure is the validated view at
    the last node.
    """

    def __init__(self, grid: TimeGrid, values: np.ndarray, node: int, weights=None):
        self.grid = grid
        self._values = values
        self.node = node
        self._weights = weights

    @staticmethod
    def of(mu: "StoppedView", t: float) -> "StoppedView":
        """mu stopped at the node of t, or kept at its own node if that is earlier."""
        return StoppedView(mu.grid, mu._values, min(mu.grid.node(t), mu.node), mu._weights)

    @property
    def n(self) -> int:
        return self._values.shape[0]

    n_atoms = n

    @property
    def dim(self) -> int:
        return self._values.shape[2]

    @cached_property
    def weights(self) -> np.ndarray:
        return np.full(self.n, 1.0 / self.n) if self._weights is None else self._weights

    def values_at(self, t: float) -> np.ndarray:
        """(N, d) values at the node of min(t, current time)."""
        return self._values[:, min(self.grid.node(t), self.node), :]

    @property
    def values_now(self) -> np.ndarray:
        return self._values[:, self.node, :]

    def seminorm_sq_at(self, t: float) -> np.ndarray:
        """||x||_t^2 per path, shape (N,), with t clamped to the current time."""
        return sup_seminorm_sq_values(self._values, min(self.grid.node(t), self.node))

    def _average(self, a: np.ndarray):
        if self._weights is None:
            # the two steps of a.mean(axis=0), without its Python wrapper
            return np.add.reduce(a, axis=0) / a.shape[0]
        return self._weights @ a

    def mean_at(self, t: float) -> np.ndarray:
        return self._average(self.values_at(t))


class EmpiricalPathMeasure(StoppedView):
    """Weighted atoms in C([0,T];H): the StoppedView at the last node whose
    atoms (N, M+1, d) and weights (N,) are validated and read-only."""

    def __init__(self, grid: TimeGrid, atoms: np.ndarray, weights):
        # a read-only view: the caller's array stays writable, nothing is copied
        atoms = np.asarray(atoms, dtype=float).view()
        if atoms.ndim != 3 or atoms.shape[1] != grid.steps + 1:
            raise ConfigurationError("atoms must have shape (N, M+1, d) matching the grid")
        n = atoms.shape[0]
        if n == 0:
            raise ConfigurationError(
                f"a path measure needs at least one atom, got atoms of shape {atoms.shape}"
            )
        # 1/N weights are valid by construction
        weights = np.full(n, 1.0 / n) if weights is None else probability_weights(weights, n, "weights")
        atoms.setflags(write=False)
        weights.setflags(write=False)
        super().__init__(grid, atoms, grid.steps, weights)

    @property
    def atoms(self) -> np.ndarray:
        return self._values

    def atom_path(self, i: int) -> PathGrid:
        return PathGrid(self.grid, self.atoms[i])

    def replace_atom(self, i: int, path: PathGrid) -> "EmpiricalPathMeasure":
        atoms = self.atoms.copy()
        atoms[i] = path.values
        return EmpiricalPathMeasure(self.grid, atoms, self.weights)


def measure_from_paths(paths, weights=None) -> EmpiricalPathMeasure:
    grid = paths[0].grid
    atoms = np.stack([p.values for p in paths])
    return EmpiricalPathMeasure(grid, atoms, weights)


class EmpiricalControlMeasure:
    """Weighted atoms in the action space U, a subset of R^m: atoms (N, m),
    weights (N,).  Without weights the law is uniform and, as a StoppedView's,
    its weight vector is built when first read."""

    def __init__(self, atoms, weights=None):
        self.atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        if self.atoms.ndim != 2 or self.atoms.shape[0] == 0:
            raise ConfigurationError(
                f"a control law needs (N, m) atoms, at least one atom, got atoms of shape {self.atoms.shape}"
            )
        if weights is not None:
            weights = probability_weights(weights, self.atoms.shape[0], "control weights")
        self._weights = weights

    @cached_property
    def weights(self) -> np.ndarray:
        n = self.atoms.shape[0]
        return np.full(n, 1.0 / n) if self._weights is None else self._weights

    def mean(self) -> np.ndarray:
        return self.weights @ self.atoms


def stopped_measure(mu: StoppedView, t: float) -> EmpiricalPathMeasure:
    """Pushforward under x -> x_{. ^ t} of any StoppedView, as a measure for
    exact Wasserstein computations; weights unchanged, idempotent."""
    view = StoppedView.of(mu, t)
    return EmpiricalPathMeasure(mu.grid, stop_values(view._values, view.node), view._weights)


def _sup_cost_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_ij = ||x_i - y_j||_T^2 = max over nodes of |x_i(s) - y_j(s)|^2 for
    path blocks x (n, nodes, d) and y (m, nodes, d); returns (n, m).

    The (row, node, column) entries are built in tiles of at most
    COST_TILE_ELEMENTS: a span of nodes (all of them when one row of x fits,
    else as many as fit, one at least) times as many rows of x as fit.  Per
    node span, y's coordinate planes are copied once into a (d, span, m)
    buffer and the rows of x are walked against it.  The scratch beside the
    result is two tiles and those planes, about (d + 2) * 512 kB whatever the
    grid, and a tile stays in a core's L2 cache.  In a tile the squared
    coordinate differences are added one coordinate at a time, left to right,
    the order in which numpy sums a contiguous axis shorter than 8, and a max
    is exact in any grouping: for d <= 7 every entry is the float of the one-shot
    ((x[:, None] - y[None]) ** 2).sum(axis=3).max(axis=2).  For d >= 8 numpy
    sums that axis pairwise, and an entry may differ from it in the last bit.
    """
    n, nodes, d = x.shape
    m = y.shape[0]
    span = max(1, min(nodes, COST_TILE_ELEMENTS // m))
    rows = max(1, min(n, COST_TILE_ELEMENTS // (span * m)))
    planes = np.empty((d, span, m))
    buf = np.empty((2, rows, span, m))
    top = np.empty((rows, m))
    cost = np.empty((n, m))
    for c0 in range(0, nodes, span):
        c1 = min(c0 + span, nodes)
        yc = planes[:, : c1 - c0]
        yc[...] = y[:, c0:c1].transpose(2, 1, 0)
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            total, sq = buf[:, : r1 - r0, : c1 - c0]
            for k in range(d):
                out = sq if k else total
                np.subtract(x[r0:r1, c0:c1, k, None], yc[k], out=out)
                np.square(out, out=out)
                if k:
                    np.add(total, sq, out=total)
            if c0:
                np.maximum(cost[r0:r1], total.max(axis=1, out=top[: r1 - r0]), out=cost[r0:r1])
            else:
                total.max(axis=1, out=cost[r0:r1])
    return cost


def _uniform(w: np.ndarray) -> bool:
    """Whether all weights are equal, exactly: near-uniform weights are not
    uniform and have a different transport value."""
    return bool(np.logical_and.reduce(w == w[0]))  # np.all without its Python wrapper


def exact_ot_cost(cost: np.ndarray, w_row: np.ndarray, w_col: np.ndarray) -> float:
    """Optimal value of the discrete OT problem for a given cost matrix.

    Equal uniform weights with a square matrix reduce to the assignment
    problem; anything else, near-uniform weights included, is solved as the
    transport LP over the coupling polytope (one marginal constraint dropped
    as redundant) by HiGHS with presolve off.  With that constraint dropped
    the polytope leaves presolve nothing to remove, and its pass over the
    2nm nonzeros took about 40% of the solve at 160 x 184 atoms.  A cost
    with a non-finite entry is refused on both paths.
    """
    n, m = cost.shape
    if not np.logical_and.reduce(np.isfinite(cost), axis=None):
        i, j = np.argwhere(~np.isfinite(cost))[0]
        raise ConfigurationError(
            f"transport cost must be finite, got {cost[i, j]} at entry ({i}, {j})"
        )
    if n == m and _uniform(w_row) and _uniform(w_col):
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
    res = linprog(
        cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
        options={"presolve": False},
    )
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
        cost = _sup_cost_matrix(mu.atoms, nu.atoms)
        return float(np.sqrt(exact_ot_cost(cost, mu.weights, nu.weights)))
    if mode == "sliced":
        if projections < 1:
            raise DomainError(f"sliced W2 needs at least one projection, got {projections}")
        for side, law in (("mu", mu), ("nu", nu)):
            if not np.isfinite(law.atoms).all():
                raise ConfigurationError(f"sliced W2 needs finite atoms; {side} has a non-finite atom")
        return _sliced_w2(mu, nu, projections, seed)
    raise DomainError(f"unknown W2 mode {mode!r}")


def _cut_points(w: np.ndarray) -> np.ndarray:
    """Cumulative weights of sorted atoms: the right ends of their quantile intervals.

    Equal weights get the exact cut points k/n; a running sum of 1/n drifts
    by ~1e-13 at n = 4000, which would pair the wrong tail atoms.
    """
    n = len(w)
    if _uniform(w):
        return np.arange(1, n + 1) / n
    return np.cumsum(w)


def _quantile_coupling(c1: np.ndarray, c2: np.ndarray):
    """The quantile coupling of two sorted sides, given by their cut points.

    The merged cut points of both CDFs split the mass axis into intervals on
    which both quantile functions are constant; each interval couples sorted
    atom i of the first side with sorted atom j of the second, its length as
    mass.  Returns (mass, i, j).  The coupling stops where the lighter side's
    total weight ends.
    """
    cuts = np.union1d(c1, c2)
    cuts = cuts[cuts <= min(c1[-1], c2[-1])]
    left = np.concatenate(([0.0], cuts[:-1]))
    i = np.searchsorted(c1, left, side="right")
    j = np.searchsorted(c2, left, side="right")
    return cuts - left, i, j


def _quantile_ot_sq(z1, w1, z2, w2) -> float:
    """Exact squared 1-d W2 between weighted point sets via the quantile coupling."""
    o1, o2 = np.argsort(z1, kind="stable"), np.argsort(z2, kind="stable")
    mass, i, j = _quantile_coupling(_cut_points(w1[o1]), _cut_points(w2[o2]))
    z1, z2 = z1[o1], z2[o2]
    return float(mass @ (z1[i] - z2[j]) ** 2)


def _sliced_w2(mu, nu, projections, seed) -> float:
    """Sliced W2, one seeded projection at a time.

    When both clouds are uniform the coupling depends only on the atom
    counts, so it is solved once per call and each projection sorts values
    in place: the sorted floats are those of a stable argsort, up to the
    sign of a zero that is squared away.  The loop is per projection on
    purpose: a (P, K) batch reads strided rows (S[:, i]) or takes a gemv,
    either of which moves the last bit of the dot products, and it holds P
    times the scratch.
    """
    rng = np.random.default_rng(seed)
    n_nodes = mu.grid.steps + 1
    d = mu.dim
    uniform = _uniform(mu.weights) and _uniform(nu.weights)
    if uniform:
        mass, i, j = _quantile_coupling(_cut_points(mu.weights), _cut_points(nu.weights))
    total = 0.0
    for _ in range(projections):
        profile = rng.dirichlet(np.ones(n_nodes))
        e = rng.standard_normal(d)
        e /= np.linalg.norm(e)
        z_mu = np.einsum("njd,j,d->n", mu.atoms, profile, e)
        z_nu = np.einsum("njd,j,d->n", nu.atoms, profile, e)
        if uniform:
            z_mu.sort()
            z_nu.sort()
            total += float(mass @ (z_mu[i] - z_nu[j]) ** 2)
        else:
            total += _quantile_ot_sq(z_mu, mu.weights, z_nu, nu.weights)
    return float(np.sqrt(d * total / projections))


def wasserstein2_controls(nu1: EmpiricalControlMeasure, nu2: EmpiricalControlMeasure) -> float:
    """Exact W2 between control laws on U (Euclidean ground cost, the sup
    cost of one-node paths); diagnostics only."""
    if nu1.atoms.shape[1] != nu2.atoms.shape[1]:
        raise ConfigurationError("control laws have different action dimensions")
    cost = _sup_cost_matrix(nu1.atoms[:, None, :], nu2.atoms[:, None, :])
    return float(np.sqrt(exact_ot_cost(cost, nu1.weights, nu2.weights)))
