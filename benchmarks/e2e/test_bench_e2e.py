"""Tests of the end-to-end benchmark itself (``pytest benchmarks/e2e``).

They run the quick shapes of the workloads as a user would, through
``run.py`` in a subprocess, and check the contract of its output: every
metric of ``BENCHMARK.json`` emitted with its unit, valid names, a
traced run that writes every per-layer metric, and a non-zero exit
when an output does not match ``expected.json``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import compare
from common import BENCHMARK_JSON, EXPECTED_JSON, HERE, ROOT

RUN = HERE / "run.py"
WORKLOADS = ("cells-accurate", "cells-fast", "sweep", "service")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    return json.loads(BENCHMARK_JSON.read_text())


def run(*args):
    result = subprocess.run(
        [sys.executable, str(RUN), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = result.stdout.strip().splitlines()
    return result, lines


def last_json(lines):
    return json.loads(lines[-1])


def test_benchmark_json_is_well_formed():
    document = spec()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in document[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower"), entry
    for entry in document["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25, entry
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])
    assert len(document["end_to_end"]) <= 16 and len(document["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_end_to_end_metric(workload):
    result, lines = run("--workload", workload, "--quick")
    assert result.returncode == 0, result.stdout + result.stderr
    document = last_json(lines)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] and document["failed"] == 0
    assert document["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in document["metrics"].items()} == expected
    for name, unit in expected.items():
        value = document["metrics"][name]["value"]
        assert value > 0, name
        assert any(line.startswith(f"{name} ") and f" {unit} " in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_quick_run_emits_every_per_layer_metric(workload, tmp_path):
    result, lines = run("--workload", workload, "--quick", "--traced", "--out", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    names = {m["name"] for m in spec()["per_layer"]}
    assert set(last_json(lines)["metrics"]) == names
    layers = json.loads((tmp_path / workload / "layers.json").read_text())
    assert set(layers["metrics"]) == names
    assert layers["metrics"]["bench.tracing_overhead"] > 0
    spans = [
        json.loads(line)
        for line in (tmp_path / workload / "spans.jsonl").read_text().splitlines()
    ]
    assert spans and all(span["end"] >= span["start"] for span in spans)
    record = json.loads((tmp_path / "runs.jsonl").read_text().splitlines()[-1])
    assert record["trace"] == 1 and record["correct"]


def test_corrupted_expected_output_fails_the_run(tmp_path):
    expected = json.loads(EXPECTED_JSON.read_text())
    cells = expected["quick"]["cells-accurate"]["cells"]
    first = sorted(cells)[0]
    cells[first]["uops"] += 1
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    result, lines = run(
        "--workload", "cells-accurate", "--quick", "--expected", str(corrupted)
    )
    assert result.returncode == 1
    document = last_json(lines)
    assert not document["correct"] and document["failed"] >= 1
    assert any(line.startswith(f"CHECK FAILED {first}") for line in lines)


def test_pinned_quick_outputs_match():
    result, lines = run("--workload", "cells-fast", "--quick")
    assert result.returncode == 0, result.stdout
    assert any("outputs pinned" in line for line in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    result = subprocess.run(
        [sys.executable, str(script), "--workload", "cells-accurate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_compare_verdicts():
    def check(parent, change, lower=True, bound=0.1):
        paired = list(zip(parent, change))
        return compare.verdict(parent, change, paired, lower, bound)[0]

    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert check(base, [v * 0.8 for v in base]) == "improved"
    assert check(base, [v * 1.2 for v in base]) == "worse"
    assert check(base, [v * 1.01 for v in reversed(base)]) == "unchanged"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert check(noisy, list(reversed(noisy))) == "unresolved"
    # higher-is-better metrics flip the direction
    assert check(base, [v * 1.2 for v in base], lower=False) == "improved"


def test_compare_reads_runs_files(tmp_path, capsys):
    names = [m["name"] for m in spec()["end_to_end"]]
    for side, factor in (("parent", 1.0), ("change", 2.0)):
        with (tmp_path / f"{side}.jsonl").open("w") as handle:
            for seed in range(10):
                metrics = {name: (100.0 + seed) * factor for name in names}
                handle.write(json.dumps({
                    "workload": "sweep", "seed": seed, "trace": 0,
                    "failed": 0, "metrics": metrics,
                }) + "\n")
    status = compare.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl")])
    out = capsys.readouterr().out
    assert status == 1  # every lower-is-better metric doubled
    assert "op_p50_ms" in out and "worse" in out and "improved" in out  # ops_per_s
    assert "ratio 2.0000 of base" in out
