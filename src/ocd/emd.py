"""Exact discrete optimal transport between equal-size uniform samples.

This is the benchmarking oracle: an assignment problem solved exactly at
desk scale (guarded at N <= 5000).  The solver is the augmenting-path
(Jonker-Volgenant style) method from scipy; a textbook cubic Hungarian
implementation lives in the test suite as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .core import CostModel, KIND_L2, l2_cost_model
from .errors import DimensionMismatch, NonFiniteInput, ShapeMismatch, SizeGuardExceeded

SIZE_GUARD = 5000


@dataclass(frozen=True)
class DiscreteCoupling:
    """Optimal permutation coupling: x_i pairs with y_assignment[i].

    total_cost is the plan integral, i.e. the mean assigned pair cost
    (each pair carries mass 1/N).
    """

    assignment: np.ndarray  # (N,) int permutation
    total_cost: float


def _check_inputs(x, y):
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeMismatch("sample sets must be 2-D (N, n) matrices")
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch(f"dimensions differ: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"equal sample counts required, got {x.shape[0]} and {y.shape[0]}"
        )
    if x.shape[0] > SIZE_GUARD:
        raise SizeGuardExceeded(
            f"exact solver is guarded at N <= {SIZE_GUARD}, got {x.shape[0]}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteInput("sample sets contain NaN or Inf")
    return x, y


def emd(x_samples, y_samples, cost: CostModel) -> DiscreteCoupling:
    """Optimal assignment between two equal-size sample sets.

    For 1D quadratic cost the optimum is the monotone (sort both, pair by
    rank) coupling, which is used directly; otherwise the dense cost matrix
    is handed to the assignment solver.
    """
    x, y = _check_inputs(x_samples, y_samples)
    n = x.shape[0]
    if cost.kind == KIND_L2 and x.shape[1] == 1:
        order_x = np.argsort(x[:, 0], kind="stable")
        order_y = np.argsort(y[:, 0], kind="stable")
        assignment = np.empty(n, dtype=np.int64)
        assignment[order_x] = order_y
    else:
        if cost.kind == KIND_L2:
            matrix = cdist(x, y, metric="sqeuclidean")
        else:
            matrix = np.empty((n, n))
            for i in range(n):
                matrix[i] = cost.cost(np.broadcast_to(x[i], y.shape), y)
        # imported here: only this branch needs scipy.optimize, slow to import
        from scipy.optimize import linear_sum_assignment
        _, assignment = linear_sum_assignment(matrix)
        assignment = assignment.astype(np.int64)
    total = float(np.mean(cost.cost(x, y[assignment])))
    return DiscreteCoupling(assignment=assignment, total_cost=total)


def joint_distance(pairs_a, pairs_b) -> float:
    """Squared distance between two empirical couplings.

    Each (x, y) pair is one point in R^{2n}; the distance is the exact
    assignment optimum between the two pair clouds.
    """
    return emd(pairs_a, pairs_b, l2_cost_model()).total_cost
