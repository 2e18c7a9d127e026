"""Content-defined chunking (CDC) — Gear-hash rolling boundaries.

The storage-level dedup primitive (LBFS/FastCDC family): chunk
boundaries are picked where a rolling hash of the last 64 bytes hits a
mask, so INSERTING OR DELETING bytes only perturbs the chunks around
the edit — unlike fixed-size blocks, where one inserted byte shifts
every later block. For a crawl corpus this finds shared page fragments
(templates, quoted passages) across documents at byte granularity,
complementing the token-window dedup (``dedup.window_dedup``).

Distributed shape — one scan + two keyed exchanges
(``kernels.partitioning.keyed_exchange``):

1. **chunk scan**: per doc, the Gear hash is computed VECTORIZED (the
   64-byte window is a sliding-window dot product with the 2^i decay
   kernel — no per-byte Python loop); boundaries = positions where
   ``h & mask == 0`` and ≥ ``min_size`` since the previous boundary.
   Each chunk leaves the task as ``(chunk_hash, doc_id, chunk_idx,
   length)`` — 28-byte rows, never the text.
2. **chunk-hash exchange**: first occurrence per distinct chunk
   marked in global ``(doc_id, chunk_idx)`` order, per-doc duplicate
   tallies summed in a second, doc-keyed exchange (the
   ``window_dedup`` pattern).

No SQL oracle (a 64-byte rolling hash is not expressible in DuckDB);
ground truth is a brute-force pytest plus the CDC shift-resistance
property (prepending bytes leaves all chunks after the first
resynchronized boundary identical) — the invariant that justifies the
algorithm's existence.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..kernels.hashing import splitmix64
from ..kernels.partitioning import keyed_exchange, table_width

#: deterministic 256-entry Gear table (splitmix64 of the byte value)
_GEAR = splitmix64(np.arange(256, dtype=np.uint64))
_WINDOW = 64
#: decay kernel: byte i positions back contributes gear[b] << i
_KERNEL = (np.uint64(1) << np.arange(_WINDOW, dtype=np.uint64)).astype(np.uint64)


def gear_boundaries(
    data: bytes, mask: int = 0x3F, min_size: int = 16, max_size: int = 256
) -> list[int]:
    """Chunk end positions (exclusive) for one document's bytes.

    A position t (1-based end) is a CANDIDATE when the Gear hash of
    the 64 bytes ending at t satisfies ``h & mask == 0``; candidates
    closer than ``min_size`` to the previous boundary are skipped and
    a boundary is forced at ``max_size``. The expected chunk length is
    ``mask+1`` bytes (+ min_size offset)."""
    n = len(data)
    if n == 0:
        return []
    b = np.frombuffer(data, dtype=np.uint8)
    g = _GEAR[b]
    if n >= _WINDOW:
        sw = np.lib.stride_tricks.sliding_window_view(g, _WINDOW)
        # h[t] = Σ_i gear[b[t-i]] << i  — uint64 wraparound is the hash
        h = (sw * _KERNEL[::-1]).sum(axis=1, dtype=np.uint64)
        cand = np.flatnonzero((h & np.uint64(mask)) == 0) + _WINDOW
    else:
        cand = np.empty(0, dtype=np.int64)
    out: list[int] = []
    prev = 0
    while prev < n:
        # first candidate in [prev+min_size, prev+max_size]
        lo = int(np.searchsorted(cand, prev + min_size, side="left"))
        if lo < len(cand) and cand[lo] <= prev + max_size:
            nxt = int(cand[lo])
        else:
            nxt = min(prev + max_size, n)
        out.append(min(nxt, n))
        prev = out[-1]
    return out


def _doc_chunks(doc_id: int, data: bytes, **kw) -> list[tuple[int, int, int, int]]:
    """(chunk_hash, doc_id, chunk_idx, length) rows for one doc."""
    ends = gear_boundaries(data, **kw)
    rows = []
    prev = 0
    for idx, e in enumerate(ends):
        piece = data[prev:e]
        h = int.from_bytes(
            hashlib.blake2b(piece, digest_size=8).digest(), "big", signed=False
        ) % (1 << 62)
        rows.append((h, doc_id, idx, e - prev))
        prev = e
    return rows


def cdc_chunk_stats(
    sf_dir: str,
    mask: int = 0x3F,
    min_size: int = 16,
    max_size: int = 256,
) -> "ray.data.Dataset":
    """(doc_id, n_chunks, n_dup_chunks, dup_bytes) — per-document CDC
    share report: a chunk is a DUPLICATE if its content hash appeared
    earlier in global (doc_id, chunk_idx) order anywhere in the
    corpus; ``dup_bytes`` totals their lengths (the storage/transfer
    saving a chunk store would realize)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    width = table_width(sf_dir, "documents")

    def chunk_rows(batch: pa.Table) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            rows.extend(
                _doc_chunks(
                    int(doc_id), text.encode(), mask=mask,
                    min_size=min_size, max_size=max_size,
                )
            )
        return pd.DataFrame(rows, columns=["chunk_hash", "doc_id", "chunk_idx", "length"])

    def mark_dups(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["chunk_hash", "doc_id", "chunk_idx"], kind="mergesort")
        first = ~g.duplicated("chunk_hash", keep="first")
        dup = ~first
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].astype("int64"),
                "n": np.int64(1),
                "dup": dup.astype("int64"),
                "dup_bytes": (g["length"] * dup).astype("int64"),
            }
        )

    def per_doc(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("doc_id", as_index=False)[["n", "dup", "dup_bytes"]].sum()
        return pd.DataFrame(
            {
                "doc_id": s["doc_id"].astype("int64"),
                "n_chunks": s["n"].astype("int64"),
                "n_dup_chunks": s["dup"].astype("int64"),
                "dup_bytes": s["dup_bytes"].astype("int64"),
            }
        )

    chunks = ds.map_batches(chunk_rows, batch_format="pyarrow", zero_copy_batch=True)
    marked = keyed_exchange(chunks, "chunk_hash", mark_dups, width)
    return keyed_exchange(marked, "doc_id", per_doc, width)
