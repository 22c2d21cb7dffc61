"""The artifact digest tool (``tools/artifact_digests.py``) on the shipped bounds sweep."""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np

from vhfl_lab.harness import load_config, run

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("artifact_digests", ROOT / "tools" / "artifact_digests.py")
artifact_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_digests)


def test_digests_list_every_artifact_but_the_resolved_config(tmp_path):
    config = ROOT / "configs" / "bounds_sweep.json"
    lines = artifact_digests.digests([(config, "bounds_sweep", {})], tmp_path / "tool")
    out = tmp_path / "cli"
    run(load_config(config, out_override=str(out)))
    assert sorted(p.name for p in out.iterdir()) == ["bounds_sweep.csv", "resolved_config.json"]
    digest = hashlib.sha256((out / "bounds_sweep.csv").read_bytes()).hexdigest()
    assert lines == [f"{digest}  bounds_sweep/bounds_sweep.csv"]
    runs = artifact_digests.shipped_runs()
    assert (config, "bounds_sweep", {}) in runs
    assert any("channel" in extra for _, mode, extra in runs if mode in ("vhfl", "hfl", "compare"))


def test_header_names_numpy_and_the_openblas_kernel(monkeypatch, capsys):
    line = artifact_digests.header()
    assert re.fullmatch(rf"# numpy {re.escape(np.__version__)}, OpenBLAS \S+", line)
    # the header is printed by main only, above the digest lines
    monkeypatch.setattr(artifact_digests, "digests", lambda runs, work: ["abc  x/y.csv"])
    assert artifact_digests.main() == 0
    assert capsys.readouterr().out == f"{line}\nabc  x/y.csv\n"


def test_header_says_unknown_when_no_library_answers(monkeypatch):
    def unloadable(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert artifact_digests.header() == f"# numpy {np.__version__}, OpenBLAS unknown"
