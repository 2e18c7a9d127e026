"""Local dry-run of the driver's correctness gate.

Runs every ``queries()`` entry from ``__ray_entry__`` over an sf directory,
runs the matching ``oracle_sql()`` statement in DuckDB over the same parquet
tables, and compares rows / schema / values the way the driver does
(columns sorted by name, rows sorted by all columns, values hashed).

Usage::

    python tools/gatecheck.py [--sf /root/testdata/sf0.01] [--only q1,q2]

Prints one line per query (status, row counts, wall time, the Ray part of
that time — the query call plus its ``to_pandas`` and canonical form,
without the DuckDB oracle, as ``ray_s=`` — and the value hash of the Ray
result, so two gate logs diff query by query) and a JSON summary; exit
code 1 on any mismatch. Ray gets as many CPUs as the process may run on; ``RAY_GRAFT_CPUS=N`` sets another count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(res):
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            res = res.to_pandas()
    except Exception:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    if not isinstance(res, pd.DataFrame):
        raise TypeError(f"unexpected result type {type(res)}")
    return res


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        s = df[c]
        if pd.api.types.is_float_dtype(s):
            df[c] = s.round(6)
        elif pd.api.types.is_datetime64_any_dtype(s):
            df[c] = s.astype("datetime64[us]").astype("int64")
        elif s.dtype == object:
            df[c] = s.astype(str)
    if len(df.columns):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _value_hash(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        h.update(df[c].to_csv(index=False, header=False).encode())
    return h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01"))
    ap.add_argument("--only", default=None)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    import duckdb
    import ray

    if not ray.is_initialized():
        cpus = os.environ.get("RAY_GRAFT_CPUS") or len(os.sched_getaffinity(0))
        ray.init(address="local", num_cpus=int(cpus),
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")

    import __ray_entry__ as entry

    queries = entry.queries()
    oracles = entry.oracle_sql()
    only = set(args.only.split(",")) if args.only else None

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(args.sf, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    results = {}
    n_fail = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        ray_s = None
        row = {"rows_match": None, "schema_match": None, "hash_match": None,
               "ray_rows": None, "oracle_rows": None, "err": None, "hash": None}
        try:
            got = _canon(_to_pandas(fn(args.sf)))
            ray_s = time.time() - t0
            row["ray_rows"] = len(got)
            row["hash"] = _value_hash(got)
            sql = oracles.get(name)
            if sql is None:
                row["err"] = "no_oracle"
                status = "rows-only" if len(got) >= 0 else "?"
            else:
                want = _canon(con.execute(sql).fetchdf())
                row["oracle_rows"] = len(want)
                row["rows_match"] = len(got) == len(want)
                row["schema_match"] = list(got.columns) == list(want.columns)
                row["hash_match"] = (
                    row["rows_match"] and row["schema_match"]
                    and row["hash"] == _value_hash(want)
                )
                if not row["hash_match"] and row["rows_match"] and row["schema_match"]:
                    # tolerate float jitter the csv-hash misses
                    try:
                        pd.testing.assert_frame_equal(
                            got, want, check_dtype=False, rtol=1e-5, atol=1e-8)
                        row["hash_match"] = True
                    except AssertionError:
                        pass
                status = "PASS" if row["hash_match"] else "FAIL"
                if status == "FAIL":
                    n_fail += 1
        except Exception as exc:  # noqa: BLE001
            row["err"] = f"{type(exc).__name__}: {exc}"[:300]
            status = "ERROR"
            n_fail += 1
        dt = time.time() - t0
        print(f"{status:9s} {name:36s} ray={row['ray_rows']} oracle={row['oracle_rows']} ({dt:.1f}s)"
              + (f" ray_s={ray_s:.2f}" if ray_s is not None else "")
              + f" hash={row['hash']}"
              + (f" err={row['err']}" if row["err"] and status == "ERROR" else ""),
              flush=True)
        results[name] = row

    print(json.dumps({"checked": len(results), "failures": n_fail}))
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
