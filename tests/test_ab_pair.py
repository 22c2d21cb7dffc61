"""The in-process A/B tool's comparison and summary (``tools/ab_pair.py``),
on toy output trees and toy times, not on a benchmark run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ab_pair", ROOT / "tools" / "ab_pair.py")
ab_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pair)


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, body in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)
    return root


TREE = {
    "c0/trace_vhfl_seed1.csv": b"epoch,train_mse\n0,0.5\n",
    "c0/summary.csv": b"mode\nvhfl\n",
    "c1/gamma.csv": b"1\n",
}


def test_trees_that_differ_only_in_resolved_config_are_the_same(tmp_path):
    a = write_tree(tmp_path / "a", {**TREE, "c0/resolved_config.json": b'{"out_dir": "a/c0"}'})
    b = write_tree(tmp_path / "b", {**TREE, "c0/resolved_config.json": b'{"out_dir": "b/c0"}'})
    assert ab_pair.same_artifacts(a, b)


@pytest.mark.parametrize(
    "change",
    [
        {"c0/summary.csv": b"mode\nhfl\n"},  # one byte differs
        {"c1/extra.csv": b""},  # one side writes a file more
    ],
    ids=["bytes", "extra_file"],
)
def test_trees_that_differ_in_an_artifact_are_not_the_same(tmp_path, change):
    a = write_tree(tmp_path / "a", TREE)
    b = write_tree(tmp_path / "b", {**TREE, **change})
    assert not ab_pair.same_artifacts(a, b)
    assert not ab_pair.same_artifacts(b, a)


def test_a_file_in_another_directory_is_another_artifact(tmp_path):
    a = write_tree(tmp_path / "a", TREE)
    moved = {("c2/gamma.csv" if name == "c1/gamma.csv" else name): body for name, body in TREE.items()}
    assert not ab_pair.same_artifacts(a, write_tree(tmp_path / "b", moved))


def test_summary_reads_medians_pair_ratios_and_wins():
    times_a = [1.0, 2.0, 4.0, 1.0]
    times_b = [0.5, 2.0, 3.0, 1.5]  # ratios 0.5, 1.0 (a tie), 0.75, 1.5
    summary = ab_pair.summarize(times_a, times_b)
    # quartiles by statistics.quantiles' exclusive method: sorted a is
    # 1, 1, 2, 4, so q1 = 1 and q3 = 2 + 0.75 * (4 - 2)
    assert summary == {
        "median_a_s": 1.5,
        "q1_a_s": 1.0,
        "q3_a_s": 3.5,
        "median_b_s": 1.75,
        "q1_b_s": 0.75,
        "q3_b_s": 2.75,
        "median_ratio": 0.875,
        "a_won": 1,
        "b_won": 2,
        "pairs": 4,
    }
    # one pair has one time a side, its own median and quartiles
    assert ab_pair.summarize([2.0], [1.0]) == {
        "median_a_s": 2.0,
        "q1_a_s": 2.0,
        "q3_a_s": 2.0,
        "median_b_s": 1.0,
        "q1_b_s": 1.0,
        "q3_b_s": 1.0,
        "median_ratio": 0.5,
        "a_won": 0,
        "b_won": 1,
        "pairs": 1,
    }


def test_clock_summary_puts_the_cpu_summary_beside_the_wall_one():
    """A host stall that lands on one side's wall time decides the wall
    summary; the CPU summary, under keys of its own, reads the work."""
    wall_a, wall_b = [1.0, 1.0, 1.0], [0.8, 3.0, 3.0]  # b stalled in two pairs
    cpu_a, cpu_b = [0.9, 1.0, 0.95], [0.7, 0.75, 0.8]
    summary = ab_pair.summarize_clocks(wall_a, wall_b, cpu_a, cpu_b)
    wall, cpu = ab_pair.summarize(wall_a, wall_b), ab_pair.summarize(cpu_a, cpu_b)
    assert summary == {**wall, **{f"cpu_{key}": value for key, value in cpu.items()}}
    assert (summary["median_ratio"], summary["a_won"], summary["b_won"]) == (3.0, 2, 1)
    assert (summary["cpu_median_a_s"], summary["cpu_median_b_s"]) == (0.95, 0.75)
    # pair ratios 0.7 / 0.9, 0.75 and 0.8 / 0.95
    assert summary["cpu_median_ratio"] == pytest.approx(0.7 / 0.9)
    assert (summary["cpu_a_won"], summary["cpu_b_won"], summary["cpu_pairs"]) == (0, 3, 3)


def test_summary_needs_one_time_per_side_and_pair():
    with pytest.raises(ValueError):
        ab_pair.summarize([1.0, 2.0], [1.0])
