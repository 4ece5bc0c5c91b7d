"""Momentum-free adaptive optimizer with per-parameter second-moment scaling.

Updates divide each gradient by the square root of a bias-corrected running
mean of its square. The learning rate follows a cosine decay over the
run's step count. Gradients are clipped by global norm first.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import CheckpointError
from .nn import ParamGroup

BETA = 0.99   # decay of the running mean of squared gradients
EPS = 1e-8


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
        total = 0.0
        for t in self.params.tensors():
            if t.grad is not None:
                total += float((t.grad * t.grad).sum())
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
            if t.grad is None:
                continue
            v = self._second_moment[name]
            v *= BETA
            v += (1.0 - BETA) * t.grad * t.grad
            t.data -= lr * t.grad / (np.sqrt(v / correction) + EPS)

    def zero_grad(self) -> None:
        for t in self.params.tensors():
            t.grad = None

    def state(self) -> dict[str, np.ndarray]:
        out = {f"opt.{name}.v": v for name, v in self._second_moment.items()}
        out["opt.step"] = np.array([float(self.step_count)])
        return out

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore what `state()` saved; a missing key or a shape mismatch is a
        CheckpointError."""
        missing = [key for key in self.state() if key not in state]
        if missing:
            raise CheckpointError(f"checkpoint missing optimizer state: {missing}")
        for name, v in self._second_moment.items():
            arr = np.asarray(state[f"opt.{name}.v"], dtype=np.float64)
            if arr.shape != v.shape:
                raise CheckpointError(f"optimizer state opt.{name}.v: checkpoint shape "
                                      f"{arr.shape} != model shape {v.shape}")
            self._second_moment[name] = arr.copy()
        self.step_count = int(state["opt.step"][0])
