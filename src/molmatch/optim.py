"""Adam and AdamW over named parameter dictionaries.

Both operate functionally: ``step`` takes current values and gradients
keyed by name and returns the next values, keeping moment state inside
the optimizer.  AdamW applies decoupled weight decay; plain Adam folds
the decay into the gradient (classic L2).
"""

from __future__ import annotations

import numpy as np

from .config import OPTIMIZERS

__all__ = ["Adam", "make_optimizer"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, lr: float, weight_decay: float = 0.0, decoupled: bool = False):
        if lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.decoupled = bool(decoupled)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, values: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One update over every name in ``grads``; untouched names pass through."""
        self.t += 1
        out = dict(values)
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name in grads:
            if name not in values:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            x = values[name]
            g = np.asarray(grads[name], dtype=np.float64)
            if self.weight_decay and not self.decoupled:
                g = g + self.weight_decay * x
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(x)
                v = np.zeros_like(x)
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            update = self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            new = x - update
            if self.weight_decay and self.decoupled:
                new = new - self.lr * self.weight_decay * x
            out[name] = new
        return out


def make_optimizer(kind: str, lr: float, weight_decay: float = 0.0) -> Adam:
    """The optimizer named ``kind``, one of ``config.OPTIMIZERS`` exactly:
    ``adam`` (L2 decay) or ``adamw`` (decoupled decay)."""
    if kind not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {kind!r} (expected one of {OPTIMIZERS})")
    return Adam(lr, weight_decay=weight_decay, decoupled=kind == "adamw")
