"""Logistic regression and linear SVM trained by deterministic descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind, check_batch, require_both_classes


def _check_weights(weights: np.ndarray, input_dim: int) -> None:
    if weights.shape != (input_dim,):
        raise ValidationError(
            f"linear weights have shape {weights.shape}, expected ({input_dim},)"
        )


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
class LogRegModel:
    weights: np.ndarray
    bias: float

    kind = ModelKind.LOGREG

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def check_input_dim(self, input_dim: int) -> None:
        _check_weights(self.weights, input_dim)

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict) -> "LogRegModel":
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


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


def train_logreg(
    datasets: list[Dataset],
    seeds: list[int],
    iterations: int = 500,
    step: float = 0.1,
    l2: float = 1e-3,
    init: LogRegModel | None = None,
) -> list[LogRegModel]:
    """Full-batch gradient descent on L2-regularized logistic loss, one
    model per (dataset, seed), all datasets in lockstep.

    The step size halves whenever a step would increase the loss, so each
    model's accepted-loss sequence is nonincreasing. Training is
    deterministic (the seeds are part of the shared trainer signature and
    unused); ``init`` warm-starts every model when its width matches.

    Every iteration takes one gradient step on all datasets, held in one
    zero-padded block; each dataset keeps its own step size. The sums
    whose rounding depends on the row count (``X.T @ resid`` and the
    means) run once per distinct dataset length, over the datasets of
    that length stacked: each slice of a stacked ``matmul`` is the same
    gemv as the one-dataset product, and a row-wise ``np.add.reduce``
    sums each row pairwise as ``mean`` does. So model i equals the model
    of ``datasets[i]`` trained alone, bit for bit.
    """
    if not datasets:
        return []
    # datasets sorted by length (stably), so those of one length are a
    # slice; the seeds are unused, so only their count matters
    order = np.argsort([len(ds) for ds in datasets], kind="stable")
    X, y, sizes = _stacked(
        [datasets[r] for r in order], seeds, "logistic regression", bias_column=False
    )
    R, _, d = X.shape
    if init is not None and init.weights.shape == (d,):
        W = np.tile(init.weights, (R, 1))
        b = np.full(R, init.bias)
    else:
        W = np.zeros((R, d))
        b = np.zeros(R)
    n = np.array(sizes, dtype=float)
    ends = np.cumsum(np.unique(sizes, return_counts=True)[1]).tolist()
    groups = [(slice(a, e), sizes[a]) for a, e in zip([0] + ends, ends)]
    X_t = [X[g, :m].transpose(0, 2, 1) for g, m in groups]

    def means(values):
        return np.concatenate([np.add.reduce(values[g, :m], axis=1) for g, m in groups]) / n

    def loss_of(scores, W):
        # log(1 + exp(s)) - y*s, evaluated stably; the bias is unregularized
        ce = np.logaddexp(0.0, scores) - y * scores
        return means(ce) + np.vecdot(0.5 * l2 * W, W)

    lr = np.full(R, step)
    scores = _scores(X, W) + b[:, None]
    loss = loss_of(scores, W)
    for _ in range(iterations):
        resid = 1.0 / (1.0 + np.exp(-scores)) - y
        grad_w = np.concatenate(
            [np.matmul(x_t, resid[g, :m, None])[:, :, 0] for x_t, (g, m) in zip(X_t, groups)]
        )
        grad_w = grad_w / n[:, None] + l2 * W
        cand_W = W - lr[:, None] * grad_w
        cand_b = b - lr * means(resid)
        cand_scores = _scores(X, cand_W) + cand_b[:, None]
        cand_loss = loss_of(cand_scores, cand_W)
        ok = cand_loss <= loss
        W = np.where(ok[:, None], cand_W, W)
        b = np.where(ok, cand_b, b)
        loss = np.where(ok, cand_loss, loss)
        scores = np.where(ok[:, None], cand_scores, scores)  # the next gradient's
        lr = np.where(ok, lr, lr * 0.5)
    return [
        LogRegModel(weights=W[slot], bias=float(b[slot]))
        for slot in np.argsort(order).tolist()
    ]


@dataclass(frozen=True)
class LinearSVMModel:
    weights: np.ndarray
    bias: float

    kind = ModelKind.LINEAR_SVM

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def check_input_dim(self, input_dim: int) -> None:
        _check_weights(self.weights, input_dim)

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict) -> "LinearSVMModel":
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


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
