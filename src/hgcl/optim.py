"""Adam on Euclidean-parameterized weights, with global norm clipping.

All trainable weights live in flat space (manifold points only arise through
origin exp maps), so one optimizer serves the whole model. The learning rate
and the clip norm come from ``TrainConfig``; the moment decays and epsilon
are the standard constants below.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def clip_gradients(grads: list[np.ndarray], max_norm: float | None):
    """Scale the whole gradient list so its global L2 norm is <= max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if max_norm is None or total <= max_norm or total == 0.0:
        return grads, total
    scale = max_norm / total
    return [g * scale for g in grads], total


class Adam:
    """In-place Adam over a fixed parameter list; owns the moments and step count."""

    def __init__(self, params: list[Tensor], lr: float, clip_norm: float | None):
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.value) for p in self.params]
        grads, _ = clip_gradients(grads, self.clip_norm)
        self.t += 1
        t, lr = self.t, self.lr
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            m_hat = m / (1.0 - BETA1 ** t)
            v_hat = v / (1.0 - BETA2 ** t)
            p.value -= lr * m_hat / (np.sqrt(v_hat) + EPS)
