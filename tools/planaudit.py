"""Plan audit: for every `queries()` entry, count the ALL-TO-ALL
(shuffle) operators in the Dataset plan it returns, so the docstring
claims ("ONE keyed exchange", "zero-shuffle scan") are checkable
against the actual logical plan rather than taken on faith.

Usage: python tools/planaudit.py [--sf DIR] [--only q1,q2] [--md OUT]

Notes on honesty:
- Queries that return a pyarrow Table / pandas DataFrame execute
  eagerly and assemble a BOUNDED result on the driver (their top-k /
  scalar contracts); they are recorded as `eager` — the shuffle count
  of their internal stages is not visible from the returned object.
- Queries whose pipeline calls `.materialize()` internally (lineage
  cuts, reused exchanges, iterative rounds) return a plan whose
  leaves are `InputData` (pre-materialized blocks): the count below
  covers the TAIL plan only and the row is flagged `+pre`, meaning
  "at least this many exchanges, earlier stages already executed".
  The iterative ops' rounds settle this way too
  (`kernels.partitioning.settle` re-roots each round on its
  object-store block refs — nothing is collected to the driver).
The per-op docstrings remain the full-shape spec; this audit is the
mechanical lower-bound cross-check.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def audit_plan(ds) -> dict:
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll,
    )

    counts = {"alltoall": 0, "ops": [], "pre_materialized": False}

    def walk(op):
        name = type(op).__name__
        counts["ops"].append(name)
        if isinstance(op, AbstractAllToAll):
            counts["alltoall"] += 1
        if name == "InputData":
            counts["pre_materialized"] = True
        for dep in op.input_dependencies:
            walk(dep)

    walk(ds._logical_plan.dag)
    counts["ops"].reverse()  # leaf → root reads like the pipeline
    return counts


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.001")
    ap.add_argument("--only", default=None)
    ap.add_argument("--md", default=None, help="write a markdown table here")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    names = args.only.split(",") if args.only else sorted(qs)
    rows = []
    for name in names:
        try:
            res = qs[name](args.sf)
        except Exception as exc:  # noqa: BLE001 — audit keeps going
            rows.append((name, "ERROR", "", str(exc)[:80]))
            continue
        if hasattr(res, "_logical_plan"):
            info = audit_plan(res)
            tag = f"{info['alltoall']}" + ("+pre" if info["pre_materialized"] else "")
            chain = "→".join(info["ops"][:12])
            rows.append((name, "lazy", tag, chain))
        else:
            rows.append((name, "eager", "-", type(res).__name__))
        print(f"{name:40s} {rows[-1][1]:6s} shuffles={rows[-1][2]:6s} {rows[-1][3]}")

    if args.md:
        with open(args.md, "w") as f:
            f.write(
                "# PLAN AUDIT — all-to-all (shuffle) count per query\n\n"
                "Generated by `python tools/planaudit.py --md PLAN_AUDIT.md` "
                f"over `{args.sf}`.\nSee the module docstring for how to read "
                "`eager` and `+pre` rows.\n\n"
                "| query | kind | shuffles in returned plan | plan (leaf→root) |\n"
                "|---|---|---|---|\n"
            )
            for name, kind, tag, chain in rows:
                f.write(f"| {name} | {kind} | {tag} | {chain} |\n")
    ray.shutdown()


if __name__ == "__main__":
    main()
