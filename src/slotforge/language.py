"""Closed-vocabulary task strings and their learned embeddings.

Task descriptions are templated over color/shape nouns plus a handful of
glue words, standing in for a real tokenizer. Two independent embedding
tables exist in the full pipeline: one trained with the relevance filter,
one trained with the action decoder.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import ParamGroup, param
from .tensor import Tensor

COLORS = ("red", "green", "blue", "yellow", "magenta", "cyan", "orange", "purple")
SHAPES = ("square", "circle", "triangle", "diamond")
GLUE_WORDS = ("robot", "put", "the", "on")

VOCABULARY: tuple[str, ...] = GLUE_WORDS + COLORS + SHAPES
_WORD_TO_ID = {w: i for i, w in enumerate(VOCABULARY)}


class UnknownWordError(ValueError):
    pass


def tokenize(task: str) -> list[int]:
    ids = []
    for word in task.split():
        if word not in _WORD_TO_ID:
            raise UnknownWordError(f"word {word!r} not in vocabulary")
        ids.append(_WORD_TO_ID[word])
    if not ids:
        raise UnknownWordError("empty task string")
    return ids


class EmbeddingTable:
    """vocab_size x d lookup table; gradients scatter back into the table."""

    def __init__(self, rng: np.random.Generator, width: int, prefix: str):
        self.width = width
        self.prefix = prefix
        self.table = param(rng, len(VOCABULARY), width)

    def params(self) -> ParamGroup:
        return ParamGroup().collect(self.prefix, self)

    def __call__(self, task: str) -> Tensor:
        return T.gather_rows(self.table, tokenize(task))
