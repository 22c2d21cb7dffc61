"""Time two checkouts' ``src/`` against each other in one process.

Loads the ``vhfl_lab`` of each checkout as a package of its own, then runs
a benchmark workload's configs (``bench/workloads.py`` of this checkout)
with each side in turn, for a number of pairs; the side that goes first
alternates from pair to pair. A side's time is the wall time of
``harness.run`` over all the configs, which run into temporary
directories, and its CPU time is the process time (``time.process_time``)
over the same runs. Both sides share the process, its heap and the host's
moment, so the pair ratio is freer of the bias between two processes than
two ``bench/run.py`` runs are. A host stall lands on one side's wall time
and moves its pair's ratio; the process does not run while the host takes
its core away, so its CPU time leaves the stall out. Prints, for the wall and the CPU clock,
each side's median and quartiles, the median of the pair ratios B/A and
how many pairs each side won, and whether the last pair's artifacts are
byte-identical, ``resolved_config.json`` left out as it records the output
directory; the last line is one JSON object, whose CPU keys carry the
prefix ``cpu_``:

    python tools/ab_pair.py ../parent . --workload vhfl_dense --pairs 10
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def load_harness(checkout: Path, name: str) -> Any:
    """The ``harness`` of ``checkout/src/vhfl_lab``, imported as the package
    ``name``; the package's own imports are relative, so they stay inside it."""
    package = checkout.resolve() / "src" / "vhfl_lab"
    init = package / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.harness")


def run_side(harness: Any, raws: Sequence[dict], out: Path) -> tuple[float, float]:
    """Run every config into its own directory under ``out``; the wall and
    the process CPU time of the runs, parsing left out."""
    wall = cpu = 0.0
    for j, raw in enumerate(raws):
        config = harness.parse_config(raw, out_override=str(out / f"c{j}"))
        start, start_cpu = time.perf_counter(), time.process_time()
        harness.run(config)
        wall += time.perf_counter() - start
        cpu += time.process_time() - start_cpu
    return wall, cpu


def artifacts(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` but ``resolved_config.json``, by relative path."""
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "resolved_config.json"
    }


def same_artifacts(a: Path, b: Path) -> bool:
    """Whether two output trees hold the same files with the same bytes,
    ``resolved_config.json`` left out."""
    return artifacts(a) == artifacts(b)


def summarize(times_a: Sequence[float], times_b: Sequence[float]) -> dict[str, Any]:
    """Each side's median time and quartiles, as ``statistics.quantiles(n=4)``
    gives them (the median for one pair), the median pair ratio B/A, and the
    pairs each side won (a tie counts for neither)."""
    ratios = [b / a for a, b in zip(times_a, times_b, strict=True)]
    summary: dict[str, Any] = {}
    for side, times in (("a", times_a), ("b", times_b)):
        median = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (median,) * 3
        summary |= {f"median_{side}_s": median, f"q1_{side}_s": q1, f"q3_{side}_s": q3}
    return {
        **summary,
        "median_ratio": statistics.median(ratios),
        "a_won": sum(r > 1.0 for r in ratios),
        "b_won": sum(r < 1.0 for r in ratios),
        "pairs": len(ratios),
    }


def summarize_clocks(
    wall_a: Sequence[float], wall_b: Sequence[float], cpu_a: Sequence[float], cpu_b: Sequence[float]
) -> dict[str, Any]:
    """:func:`summarize` of the wall times, beside that of the CPU times with
    each key prefixed ``cpu_``."""
    return {**summarize(wall_a, wall_b), **{f"cpu_{k}": v for k, v in summarize(cpu_a, cpu_b).items()}}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the baseline")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    sides = {"a": load_harness(args.a, "vhfl_lab_a"), "b": load_harness(args.b, "vhfl_lab_b")}
    raws = workloads.configs(args.workload, args.seed)
    # per side, its (wall, CPU) times
    times: dict[str, list[tuple[float, float]]] = {"a": [], "b": []}
    with tempfile.TemporaryDirectory() as work:
        # one warm-up run a side, so that neither pays for first imports and caches
        for side, harness in sides.items():
            run_side(harness, raws, Path(work) / "warm" / side)
        for pair in range(args.pairs):
            order = ("a", "b") if pair % 2 == 0 else ("b", "a")
            for side in order:
                out = Path(work) / side
                times[side].append(run_side(sides[side], raws, out))
            (wall_a, cpu_a), (wall_b, cpu_b) = times["a"][-1], times["b"][-1]
            print(f"pair {pair + 1}: a {wall_a:.3f} s (cpu {cpu_a:.3f}), b {wall_b:.3f} s (cpu {cpu_b:.3f})", flush=True)
        identical = same_artifacts(Path(work) / "a", Path(work) / "b")
    (wall_a, cpu_a), (wall_b, cpu_b) = (zip(*times[side]) for side in ("a", "b"))
    result = {"workload": args.workload, "seed": args.seed, **summarize_clocks(wall_a, wall_b, cpu_a, cpu_b)}
    result["artifacts_identical"] = identical
    for clock, key in (("wall", ""), ("cpu", "cpu_")):
        print(
            f"{clock}: median a {result[key + 'median_a_s']:.3f} s "
            f"(q1-q3 {result[key + 'q1_a_s']:.3f}-{result[key + 'q3_a_s']:.3f}), "
            f"b {result[key + 'median_b_s']:.3f} s ({result[key + 'q1_b_s']:.3f}-{result[key + 'q3_b_s']:.3f}), "
            f"ratio b/a {result[key + 'median_ratio']:.3f}; b faster in {result[key + 'b_won']} of {result['pairs']} pairs"
        )
    print(f"artifacts {'identical' if identical else 'DIFFER'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
