"""Logistic regression and linear SVM trained by deterministic descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ValidationError
from .base import Dataset, ModelKind


def _require_both_classes(dataset: Dataset, kind: str) -> None:
    zeros, ones = dataset.class_counts()
    if zeros == 0 or ones == 0:
        raise ValidationError(
            f"{kind} training requires both classes, got {zeros} zeros / {ones} ones"
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

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict) -> "LogRegModel":
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


def train_logreg(
    dataset: Dataset,
    seed: int = 0,
    iterations: int = 500,
    step: float = 0.1,
    l2: float = 1e-3,
    init: LogRegModel | None = None,
) -> LogRegModel:
    """Full-batch gradient descent on L2-regularized logistic loss.

    The step size halves whenever a step would increase the loss, so the
    accepted-loss sequence is nonincreasing. Training is deterministic
    (``seed`` is part of the shared trainer signature and unused);
    ``init`` warm-starts from a previous model when dimensions match.
    """
    _require_both_classes(dataset, "logistic regression")
    X = dataset.vectors.astype(float)
    y = dataset.labels.astype(float)
    d = X.shape[1]
    if init is not None and init.weights.shape == (d,):
        w = init.weights.copy()
        b = init.bias
    else:
        w = np.zeros(d)
        b = 0.0

    lr = step
    loss = logreg_loss(w, b, X, y, l2)
    for _ in range(iterations):
        grad_w, grad_b = logreg_gradient(w, b, X, y, l2)
        cand_w = w - lr * grad_w
        cand_b = b - lr * grad_b
        cand_loss = logreg_loss(cand_w, cand_b, X, y, l2)
        if cand_loss <= loss:
            w, b, loss = cand_w, cand_b, cand_loss
        else:
            lr *= 0.5
    return LogRegModel(weights=w, bias=b)


@dataclass(frozen=True)
class LinearSVMModel:
    weights: np.ndarray
    bias: float

    kind = ModelKind.LINEAR_SVM

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_scores(X) >= 0.0).astype(int)

    def to_json(self) -> dict:
        return {"weights": self.weights.tolist(), "bias": self.bias}

    @classmethod
    def from_json(cls, doc: dict) -> "LinearSVMModel":
        return cls(weights=np.array(doc["weights"], dtype=float), bias=float(doc["bias"]))


def train_linear_svm(
    dataset: Dataset,
    seed: int = 0,
    epochs: int = 500,
    l2: float = 1e-3,
    init: LinearSVMModel | None = None,
) -> LinearSVMModel:
    """Full-batch subgradient descent on hinge loss + L2, step 1/(l2*t).

    Labels are mapped to +/-1 internally. The bias rides along as an
    augmented, regularized coordinate; iterates are projected onto the
    ball of radius 1/sqrt(l2) and the returned parameters are the
    t-weighted iterate average, which converges where the raw last
    iterate of a subgradient method keeps oscillating. Training is
    deterministic; ``seed`` is part of the shared trainer signature.
    """
    _require_both_classes(dataset, "linear SVM")
    X = dataset.vectors.astype(float)
    y = 2.0 * dataset.labels.astype(float) - 1.0
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])

    if init is not None and init.weights.shape == (d,):
        theta = np.concatenate([init.weights, [init.bias]])
    else:
        theta = np.zeros(d + 1)

    radius = 1.0 / np.sqrt(l2)
    averaged = np.zeros(d + 1)
    for t in range(1, epochs + 1):
        eta = 1.0 / (l2 * t)
        margins = y * (Xa @ theta)
        violating = margins < 1.0
        grad = l2 * theta - (Xa[violating] * y[violating, None]).sum(axis=0) / n
        theta = theta - eta * grad
        norm = np.linalg.norm(theta)
        if norm > radius:
            theta = theta * (radius / norm)
        averaged += t * theta
    averaged *= 2.0 / (epochs * (epochs + 1))
    return LinearSVMModel(weights=averaged[:d], bias=float(averaged[d]))
