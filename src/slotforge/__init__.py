"""slotforge: object- and relation-centric visual tokens for action decoding.

A desk-scale pipeline: a patch frontend feeds iterative slot refinement with
temporal carryover, a language-conditioned relevance filter keeps the few
slots that matter, a relation encoder adds interaction tokens, and a small
transformer decodes discretized actions. Everything runs on a from-scratch
float64 autodiff core and is exercised against a deterministic synthetic
manipulation world.
"""

__version__ = "0.1.0"

from .tensor import Tensor, GradTape, no_grad, fresh_tape

__all__ = ["Tensor", "GradTape", "no_grad", "fresh_tape", "__version__"]
