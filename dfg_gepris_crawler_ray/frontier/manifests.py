"""Run ledger + per-partition manifests — checkpoint/resume/lineage.

The reference's resume story is durable Postgres state + an HTTP cache
(settings.py:130-138). A batch engine needs explicit artifacts
(BASELINE.json north_rule): every run writes

    <store>/runs/run=<id>/items/part-*.parquet     (history delta)
    <store>/runs/run=<id>/manifest.json            (lineage + counts)
    <store>/state.parquet, runs.parquet            (atomically replaced)

``manifest.json`` records the input corpus, frontier spec, per-status
row counts, a content hash of the delta, and the parent run id — the
per-partition lineage a resuming driver uses to skip completed runs
(anti-join frontier vs completed manifests).
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd
import pyarrow as pa

#: ``state.TABLE_DTYPES`` names → the Arrow types a ds table is stored as
_ARROW_TYPES = {
    "int64": pa.int64(), "float64": pa.float64(), "string": pa.string(), "bool": pa.bool_()
}


def _arrow_types(name: str) -> dict | None:
    """Column → Arrow type of the ds-resident table ``name``, or None
    for a table without canonical dtypes."""
    from .state import TABLE_DTYPES

    dtypes = TABLE_DTYPES.get(name)
    return None if dtypes is None else {c: _ARROW_TYPES[t] for c, t in dtypes.items()}


class CrawlStore:
    """File-backed crawl state directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "runs"), exist_ok=True)

    # --- state tables ------------------------------------------------------
    #
    # Publish protocol (crash-atomic, both forms): data is written to a
    # NEW artifact (versioned ``<name>_ds.v<seq>/`` directory or the
    # single ``<name>.parquet`` via tmp+rename), then a tiny pointer file
    # ``<name>.live`` is atomically replaced to name the live artifact,
    # then stale artifacts are garbage-collected. A crash at any point
    # leaves the pointer naming a complete artifact, and ``load_table``
    # and ``load_table_ds`` resolve through the SAME pointer so a ds run
    # after a crashed pandas publish (or vice versa) can never read a
    # different table than the other loader would.
    def _table_path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.parquet")

    def _pointer_path(self, name: str) -> str:
        return os.path.join(self.root, f"{name}.live")

    def _read_pointer(self, name: str) -> dict | None:
        try:
            with open(self._pointer_path(name)) as f:
                return json.load(f)
        except (OSError, ValueError):
            return None

    def _write_pointer(self, name: str, form: str, rel: str, seq: int) -> None:
        path = self._pointer_path(name)
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"form": form, "path": rel, "seq": seq}, f)
        os.replace(tmp, path)  # atomic publish of the live-artifact name

    def _resolve_live(self, name: str) -> str | None:
        """Path of the live artifact for ``name`` (file or directory),
        or None if the table has never been published. Pointer wins;
        pre-pointer stores fall back to the legacy heuristic
        (directory form, then single file)."""
        ptr = self._read_pointer(name)
        if ptr is not None:
            p = os.path.join(self.root, ptr["path"])
            if os.path.exists(p):
                return p
        # legacy / recovery: no pointer (old store) or pointer target
        # missing (manual deletion) — newest complete artifact wins
        legacy_dir = os.path.join(self.root, f"{name}_ds")
        if os.path.isdir(legacy_dir):
            return legacy_dir
        versions = sorted(
            (
                p
                for p in os.listdir(self.root)
                if p.startswith(f"{name}_ds.v")
                and os.path.isdir(os.path.join(self.root, p))
            ),
            key=lambda p: int(p.rsplit(".v", 1)[1]),
        )
        if versions:
            return os.path.join(self.root, versions[-1])
        path = self._table_path(name)
        if os.path.exists(path):
            return path
        return None

    def _gc_stale(self, name: str, keep: str) -> None:
        """Remove every artifact of ``name`` except ``keep`` (basename).
        Best-effort: a failure here never affects the published table."""
        import shutil

        candidates = [f"{name}.parquet", f"{name}_ds"] + [
            p for p in os.listdir(self.root) if p.startswith(f"{name}_ds.v")
        ]
        for base in candidates:
            if base == keep:
                continue
            p = os.path.join(self.root, base)
            try:
                if os.path.isdir(p):
                    shutil.rmtree(p)
                elif os.path.exists(p):
                    os.remove(p)
            except OSError:
                pass

    def load_table(self, name: str, empty: pd.DataFrame) -> pd.DataFrame:
        live = self._resolve_live(name)
        if live is None:
            return empty
        # pandas reads both the single-file and partitioned-dir forms
        return pd.read_parquet(live)

    def save_table(self, name: str, df: pd.DataFrame) -> None:
        path = self._table_path(name)
        tmp = path + ".tmp"
        df.to_parquet(tmp, index=False)
        os.replace(tmp, path)  # artifact complete before pointer swap
        ptr = self._read_pointer(name)
        seq = (ptr["seq"] + 1) if ptr else 1
        self._write_pointer(name, "file", f"{name}.parquet", seq)
        self._gc_stale(name, keep=f"{name}.parquet")

    # --- Dataset-resident state tables (the 10^10-key form) ---------------
    def load_table_ds(self, name: str, empty: pd.DataFrame) -> "object":
        """State table as a ``ray.data.Dataset``: resolves the live
        artifact through the same pointer as ``load_table`` — reads the
        partitioned directory or the pandas-era single parquet, else the
        empty schema — so a ds-resident run can take over a store a
        pandas run started (and vice versa). The empty table of a table
        with canonical dtypes is an Arrow table of those types: an
        object-dtype empty frame would carry Arrow ``null`` columns."""
        import ray.data

        live = self._resolve_live(name)
        if live is not None:
            return ray.data.read_parquet(live)
        types = _arrow_types(name)
        if types is None:
            return ray.data.from_pandas(empty)
        return ray.data.from_arrow(pa.schema([(c, types[c]) for c in empty.columns]).empty_table())

    def save_table_ds(self, name: str, ds: "object") -> None:
        """Partitioned parquet publish, crash-atomic: blocks stream into
        a fresh versioned directory ``<name>_ds.v<seq>/``, then the
        ``<name>.live`` pointer atomically swaps to it, then stale
        versions are garbage-collected. The live directory is never
        renamed or mutated, so a crashed writer can neither corrupt nor
        orphan the live table."""
        import shutil

        types = _arrow_types(name)
        if types is not None:

            def canon(df):
                # pin every block to the table's canonical Arrow types
                # so no parquet file carries a null-typed column: an
                # all-None block otherwise infers as Arrow `null`
                # (Ray's pandas→Arrow write path re-infers even typed
                # all-NaN pandas columns) and later reads then mix
                # null with double/string blocks — the source of the
                # pandas-3 empty/all-NA concat FutureWarning on
                # `.to_pandas()` over the live table
                return pa.table(
                    {c: pa.Array.from_pandas(df[c], type=types.get(c)) for c in df.columns}
                )

            ds = ds.map_batches(canon, batch_format="pandas")

        ptr = self._read_pointer(name)
        seq = (ptr["seq"] + 1) if ptr else 1
        base = f"{name}_ds.v{seq}"
        d = os.path.join(self.root, base)
        tmp = d + ".tmp"
        for leftover in (tmp, d):  # crashed publish at this seq
            if os.path.isdir(leftover):
                shutil.rmtree(leftover)
        ds.write_parquet(tmp)
        os.replace(tmp, d)  # artifact complete before pointer swap
        self._write_pointer(name, "ds", base, seq)
        self._gc_stale(name, keep=base)

    def compact_table_ds(self, name: str, target_blocks: int = 64) -> int:
        """Small-file compaction for a partitioned state table — the
        standing maintenance job of a long-lived 100-TB store, where
        every incremental ``save_table_ds`` can leave one file per
        upsert bucket and read amplification grows run over run.

        Streams the live directory through ``repartition(target_blocks)``
        and republished via the SAME versioned-artifact + pointer-swap
        protocol as ``save_table_ds`` — crash-safe at any point, readers
        never see a partial artifact.  No-op (returns 0) when the live
        artifact is a single file or already ≤ 2×``target_blocks``
        files.  Returns the pre-compaction file count otherwise."""
        import ray.data

        live = self._resolve_live(name)
        if live is None or not os.path.isdir(live):
            return 0
        n_files = sum(
            1 for f in os.listdir(live) if f.endswith(".parquet")
        )
        if n_files <= 2 * target_blocks:
            return 0
        ds = ray.data.read_parquet(live).repartition(target_blocks)
        self.save_table_ds(name, ds)
        return n_files

    # --- run artifacts -----------------------------------------------------
    def run_dir(self, run_id: int) -> str:
        d = os.path.join(self.root, "runs", f"run={run_id}")
        os.makedirs(d, exist_ok=True)
        return d

    def write_run_delta(self, run_id: int, delta: pd.DataFrame) -> str:
        d = os.path.join(self.run_dir(run_id), "items")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, "part-0.parquet")
        delta.to_parquet(path, index=False)
        return path

    def write_manifest(self, run_id: int, **fields) -> dict:
        manifest = dict(run_id=run_id, **fields)
        path = os.path.join(self.run_dir(run_id), "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1, default=str)
        os.replace(tmp, path)
        return manifest

    def read_manifest(self, run_id: int) -> dict | None:
        path = os.path.join(self.run_dir(run_id), "manifest.json")
        if not os.path.exists(path):
            return None
        with open(path) as f:
            return json.load(f)

    def completed_runs(self) -> list[int]:
        runs_dir = os.path.join(self.root, "runs")
        out = []
        for name in os.listdir(runs_dir):
            if name.startswith("run=") and os.path.exists(
                os.path.join(runs_dir, name, "manifest.json")
            ):
                out.append(int(name.split("=")[1]))
        return sorted(out)


def content_hash(df: pd.DataFrame, cols: list[str] | None = None) -> str:
    """Order-insensitive content hash of a delta (lineage fingerprint)."""
    cols = cols or list(df.columns)
    h = hashlib.sha256()
    if len(df):
        # vectorized concat (a row-wise apply is ~100x slower on
        # 10^5-row deltas)
        joined = df[cols[0]].astype(str)
        for c in cols[1:]:
            joined = joined.str.cat(df[c].astype(str), sep="\x1f")
        payload = joined.tolist()
    else:
        payload = []
    for line in sorted(payload):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
