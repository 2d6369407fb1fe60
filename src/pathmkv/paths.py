"""Time-discretized H-valued paths and the path operations used everywhere else.

A path lives on a uniform grid t_j = j*T/M.  Times passed to any operation are
snapped to the nearest grid node, after which stopping, bumping and the running
sup-seminorm are exact (no interpolation).  Bumped paths stand in for the
cadlag objects needed by vertical derivatives: a bump by a (d,) direction
array at node j means the new value holds from node j on.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .hilbert import vector


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with M steps (M+1 nodes)."""

    T: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigurationError(f"horizon must be positive and finite, got T={self.T}")
        if not isinstance(self.steps, numbers.Integral) or self.steps < 1:
            raise ConfigurationError(f"need a whole number of steps, at least one, got {self.steps!r}")

    @property
    def dt(self) -> float:
        return self.T / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def node(self, t: float) -> int:
        """Index of the grid node nearest to t; t must lie in [0, T] up to rounding."""
        if not -1e-12 * self.T <= t <= self.T * (1 + 1e-12):
            raise DomainError(f"time {t} outside [0, {self.T}]")
        return int(round(min(max(t, 0.0), self.T) / self.dt))

    def time_at(self, j: int) -> float:
        return j * self.dt


@dataclass(frozen=True)
class PathGrid:
    """An H-valued path sampled on a TimeGrid: values has shape (M+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        # a read-only view: the caller's array stays writable, nothing is copied
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).view())
        if self.values.ndim != 2:
            raise ConfigurationError("path values must have shape (M+1, d)")
        if self.values.shape[0] != self.grid.steps + 1:
            raise ConfigurationError(
                f"path has {self.values.shape[0]} nodes, grid expects {self.grid.steps + 1}"
            )
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def constant_path(grid: TimeGrid, c) -> PathGrid:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return PathGrid(grid, np.tile(c, (grid.steps + 1, 1)))


def stop(x: PathGrid, t: float) -> PathGrid:
    """The stopped path s -> x_{min(s,t)}, frozen at the node of t."""
    j = x.grid.node(t)
    return PathGrid(x.grid, stop_values(x.values, j))


def stop_values(values: np.ndarray, j: int) -> np.ndarray:
    """Array form of stopping at node j; works on (M+1, d) and (N, M+1, d) blocks."""
    out = values.copy()
    out[..., j + 1 :, :] = values[..., j : j + 1, :]
    return out


def bump(x: PathGrid, t: float, h: np.ndarray) -> PathGrid:
    """Add the (d,) direction h to every node from the node of t onward (the
    direction of a vertical derivative)."""
    j = x.grid.node(t)
    out = x.values.copy()
    out[j:, :] += vector(h, x.dim)
    return PathGrid(x.grid, out)


def sup_seminorm(x: PathGrid, t: float) -> float:
    """||x||_t: max of |x_s|_H over grid nodes s <= t (t snapped)."""
    j = x.grid.node(t)
    return float(np.sqrt((x.values[: j + 1] ** 2).sum(axis=1).max()))


def sup_norm(x: PathGrid) -> float:
    return sup_seminorm(x, x.grid.T)


def node_major(n: int, nodes: int, width: int) -> np.ndarray:
    """An uninitialized (n, nodes, width) particle block stored node by node.

    It indexes as any (n, nodes, width) array; only the memory order
    differs, so every node slice [:, j, :] is one C-contiguous (n, width)
    run.  Path, noise and control blocks are allocated here: the step kernel
    reads and writes one node of all particles per step.
    """
    return np.empty((nodes, n, width)).transpose(1, 0, 2)


def sup_seminorm_sq_values(values: np.ndarray, j: int) -> np.ndarray:
    """||.||_{t_j}^2 for a particle block of shape (N, M+1, d); returns (N,).

    Streamed (`_sup_sq`): the pass holds a few MB beside the block, never a
    temporary as large as it, and every float equals the one-shot
    (values[:, :j+1] ** 2).sum(axis=2).max(axis=1).
    """
    return _sup_sq(values, None, 0, j)


def sup_seminorm_sq_distance(a: np.ndarray, b: np.ndarray, j: int, start: int = 0) -> np.ndarray:
    """max over nodes start..j of |a_s - b_s|_H^2 per particle for two
    (N, M+1, d) blocks; returns (N,).  With start = 0 it is ||a - b||_{t_j}^2,
    computed without the difference block."""
    if a.shape != b.shape:
        raise ConfigurationError(f"block shapes differ: {a.shape} vs {b.shape}")
    return _sup_sq(a, b, start, j)


# Elements per chunk of a streamed whole-path reduction: 2 MB of float64.
REDUCE_ELEMENTS = 2**18


def _sup_sq(values, other, lo, hi):
    """max over nodes lo..hi of |values_s - other_s|^2 (|values_s|^2 when
    other is None) per particle, reduced chunk by chunk along the nodes,
    whatever the block's memory order.

    Each chunk is squared into one reused node-major buffer and summed over d
    there; the d axis is contiguous in the buffer as in the one-shot
    temporary, so each node's sum is the same float, and a max is exact in
    any grouping.  A sum of one element is that element, so a d axis of
    length 1 is read, not summed, as in `calculus._row_means`.
    """
    n, _, d = values.shape
    step = max(1, REDUCE_ELEMENTS // max(1, n * d))
    buf = node_major(n, min(step, hi + 1 - lo), d)
    out = np.full(n, -np.inf)
    for c0 in range(lo, hi + 1, step):
        c1 = min(c0 + step, hi + 1)
        part = buf[:, : c1 - c0]
        if other is None:
            np.square(values[:, c0:c1], out=part)
        else:
            np.subtract(values[:, c0:c1], other[:, c0:c1], out=part)
            np.square(part, out=part)
        sq = part[:, :, 0] if d == 1 else part.sum(axis=2)
        np.maximum(out, sq.max(axis=1), out=out)
    return out


def path_to_csv(x: PathGrid) -> str:
    """CSV with header t,c1..cd; one row per node, 17 significant digits."""
    buf = io.StringIO()
    d = x.dim
    buf.write("t," + ",".join(f"c{k + 1}" for k in range(d)) + "\n")
    times = x.grid.times
    for j in range(x.grid.steps + 1):
        row = [f"{times[j]:.17g}"] + [f"{v:.17g}" for v in x.values[j]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
