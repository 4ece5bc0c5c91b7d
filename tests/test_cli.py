"""Command line exit codes for data errors."""

import pytest

from slotforge.checkpoint import save_checkpoint
from slotforge.cli import EXIT_DATA, main
from slotforge.config import RunConfig
from slotforge.pipeline import Pipeline
from slotforge.train import Corpus
from slotforge.world import WorldError


def test_train1_without_episodes_exits_with_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["train1", "--data", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "no episodes under" in capsys.readouterr().err


def test_train2_without_episodes_exits_with_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    stage1 = tmp_path / "stage1.ckpt"
    save_checkpoint(stage1, Pipeline(RunConfig()).stage1_params().state())
    code = main(["train2", "--data", str(tmp_path / "empty"), "--stage1", str(stage1),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "no episodes under" in capsys.readouterr().err


def test_empty_corpus_is_a_data_error():
    with pytest.raises(WorldError, match="empty corpus"):
        Corpus([], patch_size=8)
