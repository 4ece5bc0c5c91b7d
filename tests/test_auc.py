"""Relevance AUC: numpy average ranks against `scipy.stats.rankdata`.

`train.auc_score` ranks scores itself, so training never imports
`scipy.stats`, and no module of the package loads scipy at all. Its ranks
are exact halves, so both the ranks and the AUC must equal the scipy
formula bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import slotforge
from slotforge.train import auc_score, average_ranks

CASES = 1200


def scipy_auc(scores, labels):
    labels = np.asarray(labels) > 0.5
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = rankdata(np.asarray(scores, dtype=np.float64))
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def case(seed):
    """Scores and labels of one case: odd seeds draw from a handful of values
    (heavy ties, signed zeros included), even seeds from a continuum; one
    case in eight has a single class."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    if seed % 2:
        scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0][:int(rng.integers(1, 6))], size=n)
    else:
        scores = rng.standard_normal(n)
    labels = (rng.random(n) < rng.random()).astype(np.float64)
    if seed % 8 == 0:
        labels[:] = seed % 16 == 0
    return scores, labels


def test_average_ranks_and_auc_equal_scipy_bitwise():
    single_class = 0
    for seed in range(CASES):
        scores, labels = case(seed)
        assert average_ranks(scores).tobytes() == rankdata(scores).tobytes(), seed
        got, want = auc_score(scores, labels), scipy_auc(scores, labels)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), seed
        single_class += np.isnan(want)
    assert single_class >= CASES // 8


@pytest.mark.parametrize("scores, labels, want", [
    ([0.3], [1.0], "nan"),                      # n = 1
    ([0.1, 0.9, 0.4], [0, 0, 0], "nan"),        # one class
    ([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], 0.5),  # all tied
    ([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1], 1.0),
    ([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0], 0.0),
])
def test_small_cases(scores, labels, want):
    got = auc_score(np.array(scores, dtype=np.float64), np.array(labels))
    assert np.isnan(got) if want == "nan" else got == want


def test_the_package_loads_no_scipy():
    code = ("import sys, slotforge.cli, slotforge.train, slotforge.evaluate, slotforge.reports; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(slotforge.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
