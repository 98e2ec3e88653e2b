"""Logistic regression trained by damped Newton steps and a linear SVM by
subgradient descent, both deterministic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind, check_batch, require_both_classes


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
class _LinearModel:
    """A linear score ``X @ weights + bias``; a row is positive where it is >= 0."""

    weights: np.ndarray
    bias: float

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def check_input_dim(self, input_dim: int) -> None:
        if self.weights.shape != (input_dim,):
            raise ValidationError(
                f"linear weights have shape {self.weights.shape}, expected ({input_dim},)"
            )

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict):
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


class LogRegModel(_LinearModel):
    kind = ModelKind.LOGREG


class LinearSVMModel(_LinearModel):
    kind = ModelKind.LINEAR_SVM


def _stacked(datasets: list[Dataset], seeds: list[int], kind: str, bias_column: bool):
    """Zero-padded ``(R, n_max, d)`` vectors (plus a column of ones on the
    real rows when ``bias_column``), ``(R, n_max)`` labels and row counts."""
    check_batch(datasets, seeds, kind)
    for dataset in datasets:
        require_both_classes(dataset, kind)
    sizes = [len(ds) for ds in datasets]
    d = datasets[0].dim
    X = np.zeros((len(datasets), max(sizes), d + bias_column))
    y = np.zeros((len(datasets), max(sizes)))
    for r, ds in enumerate(datasets):
        X[r, : sizes[r], :d] = ds.vectors
        y[r, : sizes[r]] = ds.labels
        if bias_column:
            X[r, : sizes[r], d] = 1.0
    return X, y, sizes


def _scores(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X[r] @ W[r]`` for every r: one stacked matvec, each slice the same
    gemv as the one-dataset product."""
    return np.matmul(X, W[:, :, None])[:, :, 0]


NEWTON_STEPS = 30  # at most, per call
STEP_TOLERANCE = 1e-12  # a dataset freezes once its largest step component is below


def train_logreg(
    datasets: list[Dataset], seeds: list[int], l2: float = 1e-3
) -> list[LogRegModel]:
    """Damped Newton on L2-regularized logistic loss from zero, one model
    per (dataset, seed), all datasets in lockstep; the seeds are unused.

    Each step solves every dataset's Newton system in one stacked
    ``np.linalg.solve``, and a dataset halves its own step while its loss
    would rise. A dataset freezes once its largest step component is below
    ``STEP_TOLERANCE``, and the call ends when all have frozen or after
    ``NEWTON_STEPS``. A ridge of 1e-12 times the mean Hessian diagonal
    keeps the system solvable when ``l2 = 0`` on separable data or
    collinear columns.

    The sums whose rounding depends on the row count (``X.T @ resid``,
    ``X.T diag(p(1 - p)) X`` and the means) run once per distinct length,
    over that length's datasets stacked: each slice of a stacked
    ``matmul`` is the one-dataset product, and a row-wise ``np.add.reduce``
    sums pairwise as ``mean`` does. So model i equals the model of
    ``datasets[i]`` trained alone, bit for bit.
    """
    if not datasets:
        return []
    # datasets sorted by length (stably), so those of one length are a
    # slice; the seeds are unused, so only their count matters
    order = np.argsort([len(ds) for ds in datasets], kind="stable")
    X, y, sizes = _stacked(
        [datasets[r] for r in order], seeds, "logistic regression", bias_column=True
    )
    R, _, d1 = X.shape
    n = np.array(sizes, dtype=float)
    ends = np.cumsum(np.unique(sizes, return_counts=True)[1]).tolist()
    groups = [(slice(a, e), sizes[a]) for a, e in zip([0] + ends, ends)]
    X_t = [X[g, :m].transpose(0, 2, 1) for g, m in groups]
    penalty = np.full(d1, l2)
    penalty[-1] = 0.0  # the bias is unregularized

    def means(values):
        return np.concatenate([np.add.reduce(values[g, :m], axis=1) for g, m in groups]) / n

    def loss_of(scores, theta):
        # log(1 + exp(s)) - y*s, evaluated stably
        ce = np.logaddexp(0.0, scores) - y * scores
        return means(ce) + np.vecdot(0.5 * penalty * theta, theta)

    theta = np.zeros((R, d1))
    scores = np.zeros(y.shape)
    loss = loss_of(scores, theta)
    active = np.ones(R, dtype=bool)
    for _ in range(NEWTON_STEPS):
        # p and p(1 - p) from exp(-|s|), which cannot overflow
        e = np.exp(-np.abs(scores))
        resid = np.where(scores >= 0.0, 1.0, e) / (1.0 + e) - y
        curvature = e / (1.0 + e) ** 2
        grad = np.concatenate(
            [np.matmul(x_t, resid[g, :m, None])[:, :, 0] for x_t, (g, m) in zip(X_t, groups)]
        )
        hess = np.concatenate(
            [np.matmul(x_t * curvature[g, None, :m], X[g, :m]) for x_t, (g, m) in zip(X_t, groups)]
        )
        grad = grad / n[:, None] + penalty * theta
        hess = hess / n[:, None, None] + np.diag(penalty)
        hess += (1e-12 * np.trace(hess, axis1=1, axis2=2) / d1)[:, None, None] * np.eye(d1)
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        while True:
            active &= np.abs(step).max(axis=1) >= STEP_TOLERANCE
            cand = theta + step
            cand_scores = _scores(X, cand)
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
    return [
        LogRegModel(weights=theta[slot, :-1], bias=float(theta[slot, -1]))
        for slot in np.argsort(order).tolist()
    ]


def train_linear_svm(
    datasets: list[Dataset],
    seeds: list[int],
    epochs: int = 500,
    l2: float = 1e-3,
    init: LinearSVMModel | None = None,
) -> list[LinearSVMModel]:
    """Full-batch subgradient descent on hinge loss + L2, step 1/(l2*t),
    one model per (dataset, seed), all datasets in lockstep.

    Labels are mapped to +/-1 internally. The bias rides along as an
    augmented, regularized coordinate; iterates are projected onto the
    ball of radius 1/sqrt(l2) and the returned parameters are the
    t-weighted iterate average, which converges where the raw last
    iterate of a subgradient method keeps oscillating. Training is
    deterministic; the seeds are part of the shared trainer signature.

    Every epoch steps all datasets at once on one zero-padded block; a
    padded row has label 0, so it never adds to a subgradient. Model i
    equals the model of ``datasets[i]`` trained alone, bit for bit.
    """
    if not datasets:
        return []
    Xa, y, sizes = _stacked(datasets, seeds, "linear SVM", bias_column=True)
    y = np.where(np.arange(y.shape[1]) < np.array(sizes)[:, None], 2.0 * y - 1.0, 0.0)
    R, _, d1 = Xa.shape
    if init is not None and init.weights.shape == (d1 - 1,):
        theta = np.tile(np.concatenate([init.weights, [init.bias]]), (R, 1))
    else:
        theta = np.zeros((R, d1))
    n = np.array(sizes, dtype=float)[:, None]

    radius = 1.0 / np.sqrt(l2)
    averaged = np.zeros((R, d1))
    for t in range(1, epochs + 1):
        eta = 1.0 / (l2 * t)
        margins = y * _scores(Xa, theta)
        pull = (Xa * np.where(margins < 1.0, y, 0.0)[:, :, None]).sum(axis=1)
        theta = theta - eta * (l2 * theta - pull / n)
        norm = np.sqrt(np.vecdot(theta, theta))
        outside = norm > radius
        if outside.any():
            theta[outside] *= (radius / norm[outside])[:, None]
        averaged += t * theta
    averaged *= 2.0 / (epochs * (epochs + 1))
    return [
        LinearSVMModel(weights=averaged[r, :-1], bias=float(averaged[r, -1])) for r in range(R)
    ]
