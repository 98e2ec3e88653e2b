"""Logistic regression and a squared-hinge linear SVM, both minimized by
one deterministic damped-Newton solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, check_batch, require_both_classes


def logreg_loss(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> float:
    """Mean cross-entropy plus (l2/2)*|w|^2; the bias is unregularized."""
    scores = X @ weights + bias
    # log(1 + exp(s)) - y*s, evaluated stably
    ce = np.logaddexp(0.0, scores) - y * scores
    return float(ce.mean() + 0.5 * l2 * weights @ weights)


def logreg_gradient(
    weights: np.ndarray, bias: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    scores = X @ weights + bias
    probs = 1.0 / (1.0 + np.exp(-scores))
    resid = probs - y
    grad_w = X.T @ resid / len(y) + l2 * weights
    grad_b = float(resid.mean())
    return grad_w, grad_b


@dataclass(frozen=True)
class LinearModel:
    """A linear score ``X @ weights + bias``; a row is positive where it is
    >= 0. Both linear kinds train this model."""

    weights: np.ndarray
    bias: float

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def check(self, input_dim: int) -> None:
        """Raise ValidationError unless the weights read an ``input_dim``-wide
        vector and they and the bias are finite."""
        if self.weights.shape != (input_dim,):
            raise ValidationError(
                f"linear weights have shape {self.weights.shape}, expected ({input_dim},)"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise ValidationError("linear weights or bias are not finite")

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict) -> "LinearModel":
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


def _stacked(datasets: list[Dataset], seeds: list[int], kind: str):
    """Zero-padded ``(R, n_max, d + 1)`` vectors whose last column is 1 on
    the real rows (the bias), ``(R, n_max)`` labels and row counts."""
    check_batch(datasets, seeds, kind)
    for dataset in datasets:
        require_both_classes(dataset, kind)
    sizes = [len(ds) for ds in datasets]
    d = datasets[0].dim
    X = np.zeros((len(datasets), max(sizes), d + 1))
    y = np.zeros((len(datasets), max(sizes)))
    for r, ds in enumerate(datasets):
        X[r, : sizes[r], :d] = ds.vectors
        X[r, : sizes[r], d] = 1.0
        y[r, : sizes[r]] = ds.labels
    return X, y, sizes


NEWTON_STEPS = 30  # at most, per call
STEP_TOLERANCE = 1e-12  # a dataset freezes once its largest step component is below


def _logistic_loss(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy ``log(1 + exp(s)) - y*s``, evaluated stably."""
    return np.logaddexp(0.0, scores) - y * scores


def _logistic_derivatives(scores: np.ndarray, y: np.ndarray):
    """The cross-entropy's first and second derivatives in ``s``, ``p - y``
    and ``p(1 - p)``, from exp(-|s|), which cannot overflow."""
    e = np.exp(-np.abs(scores))
    return np.where(scores >= 0.0, 1.0, e) / (1.0 + e) - y, e / (1.0 + e) ** 2


def _squared_hinge_loss(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row ``max(0, 1 - t*s)^2`` with ``t = 2y - 1``."""
    return np.maximum(1.0 - (2.0 * y - 1.0) * scores, 0.0) ** 2


def _squared_hinge_derivatives(scores: np.ndarray, y: np.ndarray):
    """The squared hinge's derivative in ``s`` and its generalized second
    derivative ``2*[1 - t*s > 0]``."""
    t = 2.0 * y - 1.0
    margin = np.maximum(1.0 - t * scores, 0.0)
    return -2.0 * t * margin, 2.0 * (margin > 0.0)


def _newton(
    datasets: list[Dataset], seeds: list[int], kind: str, row_loss, row_derivatives, penalty
) -> np.ndarray:
    """Damped Newton from zero on the mean of ``row_loss`` plus
    ``sum(penalty/2 * theta^2)``, all datasets in lockstep; row r of the
    result is ``datasets[r]``'s (weights, bias). ``row_loss(scores, y)``
    gives each row's loss, and ``row_derivatives(scores, y)`` its first and
    second derivatives in the score.

    Each step solves every dataset's Newton system in one stacked
    ``np.linalg.solve``, and a dataset halves its own step while its loss
    would rise. A dataset freezes once its largest step component is below
    ``STEP_TOLERANCE``, and the call ends when all have frozen or after
    ``NEWTON_STEPS``. A ridge of 1e-12 times the mean Hessian diagonal
    keeps the system solvable when a zero penalty meets separable data or
    collinear columns.

    The sums whose rounding depends on the row count (the gradient, the
    Hessian and the mean loss) run once per distinct length, over that
    length's datasets stacked: each slice of a stacked ``matmul`` is the
    one-dataset product, and a row-wise ``np.add.reduce`` sums pairwise as
    ``mean`` does. So row i equals the fit of ``datasets[i]`` alone, bit
    for bit.
    """
    # datasets sorted by length (stably), so those of one length are a
    # slice; the seeds are unused, so only their count matters
    order = np.argsort([len(ds) for ds in datasets], kind="stable")
    X, y, sizes = _stacked([datasets[r] for r in order], seeds, kind)
    R, _, d1 = X.shape
    n = np.array(sizes, dtype=float)
    ends = np.cumsum(np.unique(sizes, return_counts=True)[1]).tolist()
    groups = [(slice(a, e), sizes[a]) for a, e in zip([0] + ends, ends)]
    X_t = [X[g, :m].transpose(0, 2, 1) for g, m in groups]

    def loss_of(scores, theta):
        values = row_loss(scores, y)
        means = np.concatenate([np.add.reduce(values[g, :m], axis=1) for g, m in groups]) / n
        return means + np.vecdot(0.5 * penalty * theta, theta)

    theta = np.zeros((R, d1))
    scores = np.zeros(y.shape)
    loss = loss_of(scores, theta)
    active = np.ones(R, dtype=bool)
    for _ in range(NEWTON_STEPS):
        first, second = row_derivatives(scores, y)
        grad = np.concatenate(
            [np.matmul(x_t, first[g, :m, None])[:, :, 0] for x_t, (g, m) in zip(X_t, groups)]
        )
        hess = np.concatenate(
            [np.matmul(x_t * second[g, None, :m], X[g, :m]) for x_t, (g, m) in zip(X_t, groups)]
        )
        grad = grad / n[:, None] + penalty * theta
        hess = hess / n[:, None, None] + np.diag(penalty)
        hess += (1e-12 * np.trace(hess, axis1=1, axis2=2) / d1)[:, None, None] * np.eye(d1)
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        while True:
            active &= np.abs(step).max(axis=1) >= STEP_TOLERANCE
            cand = theta + step
            cand_scores = np.matmul(X, cand[:, :, None])[:, :, 0]
            cand_loss = loss_of(cand_scores, cand)
            rise = active & ~(cand_loss <= loss)
            if not rise.any():
                break
            step[rise] *= 0.5
        theta = np.where(active[:, None], cand, theta)
        scores = np.where(active[:, None], cand_scores, scores)
        loss = np.where(active, cand_loss, loss)
        if not active.any():
            break
    return theta[np.argsort(order)]


def train_logreg(
    datasets: list[Dataset], seeds: list[int], l2: float = 1e-3
) -> list[LinearModel]:
    """Mean cross-entropy plus (l2/2)*|w|^2, bias unregularized, minimized
    by ``_newton``: one model per (dataset, seed); the seeds are unused."""
    if not datasets:
        return []
    penalty = np.full(datasets[0].dim + 1, l2)
    penalty[-1] = 0.0  # the bias is unregularized
    theta = _newton(
        datasets, seeds, "logistic regression", _logistic_loss, _logistic_derivatives, penalty
    )
    return [LinearModel(weights=t[:-1], bias=float(t[-1])) for t in theta]


def train_linear_svm(
    datasets: list[Dataset], seeds: list[int], l2: float = 1e-3
) -> list[LinearModel]:
    """Mean squared hinge plus (l2/2)*|(w, b)|^2, the bias a regularized
    coordinate, minimized by ``_newton`` (a primal Newton method: Chapelle,
    Neural Computation 2007): one model per (dataset, seed); the seeds are
    unused."""
    if not datasets:
        return []
    penalty = np.full(datasets[0].dim + 1, l2)
    theta = _newton(
        datasets, seeds, "linear SVM", _squared_hinge_loss, _squared_hinge_derivatives, penalty
    )
    return [LinearModel(weights=t[:-1], bias=float(t[-1])) for t in theta]
