"""Print the sha256 of every artifact the shipped configs write.

Runs each config in ``configs/`` in its own mode, plus the ``queue_analyze``
mode of ``queue_benchmark.json`` and ``delay_plan.json`` (the only way the
shipped configs reach it), and ``compare_default.json`` behind a lossy He2
upload channel (no shipped config has a ``channel`` section, so this run is
the only one in which ``netqueue.apply_channel`` draws delays and
aggregation runs over partial deliveries), each into its own temporary
directory, with the ``vhfl_lab`` of this checkout. Prints a first line ``# numpy <version>,
OpenBLAS <core>``, the BLAS kernel that numpy's bundled OpenBLAS picked on
this host (the digests hold for that kernel; another one may round matrix
products differently), then one ``sha256  label/relpath`` line per
artifact, sorted by path; the label is the config's name, followed by
``@mode`` when the mode is not the config's own and by ``+section`` for
each section the run adds to the config. ``resolved_config.json`` is
left out, as it records the output directory. Every other artifact is a pure function of
its config, so two checkouts that print the same lines write the same bytes:

    python tools/artifact_digests.py > after.txt
    (cd ../parent && python tools/artifact_digests.py) > before.txt
    diff before.txt after.txt

A full run takes 10 to 16 s on two cores, mostly ``k_el_sweep`` and
``compare_default``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from vhfl_lab.harness import parse_config, run  # noqa: E402

CONFIGS = ROOT / "configs"
# The He2 channel of the benchmark's lossy_wide workload; gamma(1.5) is about 0.76.
LOSSY_CHANNEL = {"lambda_n": 2.0, "alpha1": 0.5, "alpha2": 0.5, "mu1": 8.0, "mu2": 2.0, "t_p": 1.5, "seed": 0}
EXTRA_RUNS = (
    ("queue_benchmark.json", "queue_analyze", {}),
    ("delay_plan.json", "queue_analyze", {}),
    ("compare_default.json", "compare", {"channel": LOSSY_CHANNEL}),
)

Run = tuple[Path, str, dict]


def shipped_runs() -> list[Run]:
    """(config path, mode, added sections) of every run the tool makes by default."""
    paths = sorted(CONFIGS.glob("*.json"))
    own = [(path, json.loads(path.read_text(encoding="utf-8"))["mode"], {}) for path in paths]
    return own + [(CONFIGS / name, mode, extra) for name, mode, extra in EXTRA_RUNS]


def digests(runs: Sequence[Run], work: Path) -> list[str]:
    """Run each (config, mode, added sections) into a directory under
    ``work``; the ``sha256  label/relpath`` lines of what the runs wrote,
    sorted by path."""
    found = {}
    for path, mode, extra in runs:
        raw = json.loads(path.read_text(encoding="utf-8"))
        label = path.stem if mode == raw["mode"] else f"{path.stem}@{mode}"
        label += "".join(f"+{section}" for section in sorted(extra))
        out = work / label
        run(parse_config({**raw, **extra, "mode": mode}, out_override=str(out)))
        for artifact in sorted(out.rglob("*")):
            if artifact.is_file() and artifact.name != "resolved_config.json":
                name = f"{label}/{artifact.relative_to(out).as_posix()}"
                found[name] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    return [f"{digest}  {name}" for name, digest in sorted(found.items())]


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs on this host, as
    ``scipy_openblas_get_corename64_`` names it; ``unknown`` when no bundled
    library answers."""
    numpy_dir = Path(np.__file__).parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def header() -> str:
    """The first line printed: the numpy version and the OpenBLAS kernel."""
    return f"# numpy {np.__version__}, OpenBLAS {openblas_core()}"


def main() -> int:
    print(header())
    with tempfile.TemporaryDirectory() as work:
        for line in digests(shipped_runs(), Path(work)):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
