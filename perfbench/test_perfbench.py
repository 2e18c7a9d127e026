"""Self-test of the benchmark at tiny size.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import corpus as C
from perfbench.ledger import OPERATOR_FIELDS
from perfbench.run import END_TO_END_UNITS
from perfbench.workloads import PER_LAYER_UNITS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: N // 3 = 39 is divisible by 3, so institution listing ids collide 3:1
TINY_DOCS = 117


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_completes_with_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--docs", str(TINY_DOCS))
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    record, result = (json.loads(line) for line in lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for key in ("nproc", "cpu_count", "ray_num_cpus", "ray_version", "pyarrow_version",
                "seed", "corpus", "pinned_cpus"):
        assert key in record
    assert len(record["pinned_cpus"]) == record["ray_num_cpus"]
    if trace:
        assert os.path.exists(os.path.join(ROOT, record["trace_file"]))
        os.remove(os.path.join(ROOT, record["trace_file"]))
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert result["metrics"]["wall_s"]["value"] > 0


def test_ray_stats_field_names_pinned():
    """``ray_op_summary`` reads these internal fields; a Ray upgrade that
    renames one silently drops a metric, so fail loudly here."""
    from ray.data._internal.stats import DatasetStatsSummary, OperatorStatsSummary

    summary_fields = {f.name for f in dataclasses.fields(DatasetStatsSummary)}
    assert {"operators_stats", "parents", "global_bytes_spilled",
            "dataset_uuid", "number"} <= summary_fields
    op_fields = {f.name for f in dataclasses.fields(OperatorStatsSummary)}
    assert set(OPERATOR_FIELDS) | {"operator_name"} <= op_fields


def test_corpus_is_deterministic_per_seed(tmp_path):
    def files(seed, name):
        out = tmp_path / name
        C.write_corpus(str(out), 30, seed, shuffled=True)
        return {p: (out / p).read_bytes() for p in sorted(os.listdir(out))}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_oracle_flags_a_wrong_status():
    docs = [3, 5, 7, 10]  # langretry, moved, error, plain
    rows = [dict(context=C.G.context_of(d), id=C.G.entity_id(d), status=C.expected_status(d),
                 pages_fetched=C.expected_pages_fetched(d), error_kind=None,
                 item=json.dumps(dict(id=C.G.entity_id(d), name_de=f"Name {d}")))
            for d in docs]
    assert C.check_detail_rows(rows, docs) == []
    assert C.check_detail_rows([dict(rows[3], item='{"id": 1010, "name_de": "Name 11"}')], [10])
    rows[1] = dict(rows[1], status="success")
    assert C.check_detail_rows(rows, docs)
    assert C.check_detail_rows(rows[:2], docs)  # a missing entity


def test_fails_fast_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "details_clustered", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
