"""Momentum-free adaptive optimizer with per-parameter second-moment scaling.

Updates divide each gradient by the square root of a bias-corrected running
mean of its square. The learning rate follows a cosine decay over the
run's step count. Gradients are clipped by global norm first.
"""

from __future__ import annotations

import math

import numpy as np

from .checkpoint import CheckpointError
from .nn import ParamGroup
from .tensor import NonFiniteError

BETA = 0.99   # decay of the running mean of squared gradients
EPS = 1e-8


class TrainingError(Exception):
    """A training run went wrong in a way that is neither config nor data;
    it lives here, beside the optimizer, so the CLI can map it without
    importing the training stack."""


class AdaptiveOptimizer:
    def __init__(self, params: ParamGroup, lr: float, total_steps: int, clip_norm: float):
        self.params = params
        self.lr = lr
        self.total_steps = total_steps
        self.clip_norm = clip_norm
        self.step_count = 0
        self._second_moment = {name: np.zeros_like(t.data)
                               for name, t in params.items()}

    def current_lr(self) -> float:
        frac = min(self.step_count / self.total_steps, 1.0)
        return self.lr * 0.5 * (1.0 + np.cos(np.pi * frac))

    def _clip(self) -> None:
        """Scale every gradient by clip_norm / norm when the global norm exceeds
        clip_norm. A gradient holding NaN or Inf raises NonFiniteError naming
        its parameter, and finite gradients whose squared norm overflows raise
        one too, before anything is changed."""
        total = 0.0
        for t in self.params.tensors():
            if t.grad is not None:
                total += float((t.grad * t.grad).sum())
        if not math.isfinite(total):
            for name, t in self.params.items():
                if t.grad is not None and not np.isfinite(t.grad).all():
                    raise NonFiniteError(f"non-finite gradient for parameter {name}")
            raise NonFiniteError("global gradient norm overflows float64")
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / norm
            for t in self.params.tensors():
                if t.grad is not None:
                    t.grad *= scale

    def step(self) -> None:
        self._clip()
        lr = self.current_lr()
        self.step_count += 1
        correction = 1.0 - BETA ** self.step_count
        for name, t in self.params.items():
            g = t.grad
            if g is None:
                continue
            # v ← βv + ((1-β)·g)·g and data ← data - (lr·g) / (√(v/c) + ε), with
            # one scratch buffer and the operation order of the plain formula
            v = self._second_moment[name]
            scratch = np.multiply(1.0 - BETA, g)
            scratch *= g
            v *= BETA
            v += scratch
            np.divide(v, correction, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            t.data -= np.divide(np.multiply(lr, g), scratch, out=scratch)

    def zero_grad(self) -> None:
        for t in self.params.tensors():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        out = {f"opt.{name}.v": v for name, v in self._second_moment.items()}
        out["opt.step"] = np.array([float(self.step_count)])
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore what `state()` saved. A missing key, a shape mismatch, a
        second moment that is not finite and >= 0, or an `opt.step` that is not
        one finite integer >= 0 is a CheckpointError, raised before anything
        changes."""
        missing = [key for key in self.state() if key not in state]
        if missing:
            raise CheckpointError(f"checkpoint missing optimizer state: {missing}")
        moments = {}
        for name, v in self._second_moment.items():
            arr = np.array(state[f"opt.{name}.v"], dtype=np.float64)
            if arr.shape != v.shape:
                raise CheckpointError(f"optimizer state opt.{name}.v: checkpoint shape "
                                      f"{arr.shape} != model shape {v.shape}")
            if not (np.isfinite(arr) & (arr >= 0)).all():
                raise CheckpointError(f"optimizer state opt.{name}.v: checkpoint holds "
                                      "values that are not finite and >= 0")
            moments[name] = arr
        step = np.asarray(state["opt.step"], dtype=np.float64).reshape(-1)
        if not (step.size == 1 and np.isfinite(step[0]) and step[0] >= 0
                and step[0] == np.floor(step[0])):
            raise CheckpointError(f"optimizer state opt.step: {step.tolist()} is not one "
                                  "finite integer >= 0")
        self._second_moment = moments
        self.step_count = int(step[0])
