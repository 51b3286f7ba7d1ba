"""One ordered ``name -> Tensor`` store for learnable parameters.

The encoder (theta), the matcher (w) and the whole model keep their
tensors in the same kind of mapping, keyed by the names the checkpoint
format uses, so the inner loop, the outer step, the optimizer,
checkpoint I/O and the task-relation updates all read and write one
representation.  Subclasses add a seeded init and typed read accessors
over the names; the functional update, copy and detach live here once.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["Params", "uniform_init"]


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Draws uniform in +-1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Params:
    """Ordered ``name -> Tensor`` mapping; updates are functional.

    A tensor built with ``requires_grad=False`` is frozen: every update
    keeps it frozen.
    """

    def __init__(self, tensors: dict[str, Tensor]):
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def tensors(self) -> dict[str, Tensor]:
        return dict(self._tensors)

    def replace_values(self, values: dict[str, np.ndarray], requires_grad: bool = True):
        """Fresh tensors built from ``values`` by name; names missing from
        ``values`` keep their current values."""
        return type(self)({
            name: Tensor(
                np.asarray(values.get(name, t.values), dtype=np.float64).reshape(t.shape),
                requires_grad=requires_grad and t.requires_grad,
            )
            for name, t in self._tensors.items()
        })

    def clone(self):
        """Fresh tensors with the same values and gradient flags."""
        return self.replace_values({})

    def detach(self):
        """Gradient-free view sharing values; used for frozen passes."""
        return type(self)({name: t.detach() for name, t in self._tensors.items()})
