"""Every output file is replaced atomically: a write that fails midway leaves
the prior file byte-identical and no temporary file behind."""

import dataclasses
import errno

import numpy as np
import pytest

from meladapt import binio, cli
from meladapt import pipeline as pl
from meladapt.config import desk_config, write_effective_config
from meladapt.evalmetrics import write_report_csv


def _cfg(version):
    cfg = desk_config()
    return dataclasses.replace(cfg, source=dataclasses.replace(cfg.source, steps=version))


# writer -> write version `v` into directory `d` and return the written path
# (`or path` because most writers return None)
WRITERS = {
    "container": lambda d, v: binio.write_container(
        d / "x.ckpt", b"TESTMAGC", 1, {"v": v}, {"a": np.arange(300.0) + v}) or d / "x.ckpt",
    "metrics": lambda d, v: pl.write_metrics(
        [(s, "stage", "loss", v + s / 7) for s in range(60)], d / "m.csv") or d / "m.csv",
    "report": lambda d, v: write_report_csv(
        [(i, "arm", "mel_mae", v + i / 7) for i in range(60)], d / "r.csv") or d / "r.csv",
    "effective_cfg": lambda d, v: write_effective_config(_cfg(v), d),
    "cfg_beside_output": lambda d, v: cli._echo_config(_cfg(v), d / "out.ckpt"),
    "text": lambda d, v: binio.write_text(d / "t.txt", f"{v}\n" * 100) or d / "t.txt",
}


class _DiskFull:
    """A real file that fails with ENOSPC once `budget` bytes (or characters)
    have been written."""

    def __init__(self, fh, budget):
        self._fh, self._left = fh, budget

    def write(self, data):
        if len(data) > self._left:
            self._fh.write(data[:self._left])
            self._left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._left -= len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False


def _fail_midway(monkeypatch, budget):
    monkeypatch.setattr(binio, "open", lambda *a, **k: _DiskFull(open(*a, **k), budget),
                        raising=False)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_prior_file(writer, tmp_path, monkeypatch):
    write = WRITERS[writer]
    (tmp_path / "ref").mkdir()
    budget = write(tmp_path / "ref", 1).stat().st_size // 2
    out = tmp_path / "out"
    out.mkdir()

    _fail_midway(monkeypatch, budget)
    with pytest.raises(OSError):
        write(out, 1)
    assert list(out.iterdir()) == []

    monkeypatch.undo()
    target = write(out, 1)
    before = target.read_bytes()
    _fail_midway(monkeypatch, budget)
    with pytest.raises(OSError):
        write(out, 2)
    assert target.read_bytes() == before
    assert list(out.iterdir()) == [target]

    monkeypatch.undo()
    write(out, 2)
    assert target.read_bytes() != before
    assert list(out.iterdir()) == [target]
