"""Seeded pages corpus for the benchmark, plus the closed-form oracle.

The corpus is built in the benchmark process from the package's public
per-document page templates (``testdata.gen_pages.pages_for_doc`` and
``search_pages``); the engine only ever sees the Parquet files written
here. Every field the engine extracts is a formula over ``doc_id`` (see
``gen_pages``), so the expected outcome of each entity is known without
running the engine.

The seed picks the document text each entity carries (a deterministic
word salad shaped like the ``documents`` table of the test data: the
same vocabulary style and 48-553 characters) and the row permutation of
the shuffled layout. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from dfg_gepris_crawler_ray.testdata import gen_pages as G

_WORDS = (
    "key agg row scan slow fast table value part hash join filter sort "
    "index small large query plan cost page block batch frame window"
).split()

#: detail-page files per corpus; ``sources.pages.auto_num_blocks`` reads
#: one block per file, so this is the block count the engine sees
DETAIL_FILES = 4


def document_texts(n_docs: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    texts = []
    for _ in range(n_docs):
        n_chars = rng.randint(48, 553)
        words: list[str] = []
        length = -1
        while length < n_chars:
            w = rng.choice(_WORDS)
            words.append(w)
            length += len(w) + 1
        texts.append(" ".join(words)[:n_chars].rstrip())
    return texts


def _write_files(tbl: pa.Table, out_dir: str, prefix: str, n_files: int) -> None:
    per = -(-tbl.num_rows // n_files)
    for i in range(n_files):
        part = tbl.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"{prefix}-{i:04d}.parquet"))


def write_corpus(out_dir: str, n_docs: int, seed: int, shuffled: bool) -> dict:
    """Write the pages corpus; returns its shape (pages, bytes, files).

    Detail pages go in ``DETAIL_FILES`` files, in doc-id order (the
    key-clustered layout a fetch layer produces) or, with ``shuffled``,
    permuted by the seed so entities straddle block interiors. Listing
    and monitor pages go in ``search_pages-*`` shards, the layout
    ``read_pages`` prunes by file name.
    """
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    texts = document_texts(n_docs, seed)
    rows: list[dict] = []
    for d in range(n_docs):
        rows.extend(G.pages_for_doc(d, texts[d], n_docs))
    details = pa.Table.from_pylist(rows, schema=G.PAGES_SCHEMA)
    if shuffled:
        perm = list(range(details.num_rows))
        random.Random(seed).shuffle(perm)
        details = details.take(pa.array(perm))
    _write_files(details, out_dir, "part", DETAIL_FILES)
    listing = pa.Table.from_pylist(G.search_pages(n_docs), schema=G.PAGES_SCHEMA)
    _write_files(listing, out_dir, "search_pages", max(1, min(64, listing.num_rows // 256)))
    files = [os.path.join(out_dir, f) for f in os.listdir(out_dir)]
    return dict(
        detail_pages=details.num_rows,
        listing_pages=listing.num_rows,
        bytes=sum(os.path.getsize(f) for f in files),
        files=len(files),
    )


# ---------------------------------------------------------------------------
# oracle: expected outcomes from the generator's formulas
# ---------------------------------------------------------------------------

CONTEXTS = ("projekt", "person", "institution")


def doc_of(entity_id: int) -> int:
    return entity_id - G.entity_id(0)


def host_lookup(context: str, entity_id: int) -> str:
    return G.host_of(doc_of(entity_id))


def expected_status(doc_id: int) -> str:
    kind = G.corrupt_kind(doc_id)
    return kind if kind in ("moved", "error") else "success"


def expected_pages_fetched(doc_id: int) -> int:
    """Page copies the extract chain reads for one entity: the de page
    (twice when the cached copy fails and the refreshed one is read),
    then for a projekt the en page and, when it links results, the two
    result pages."""
    kind = G.corrupt_kind(doc_id)
    if kind == "moved":
        return 1
    if kind == "error":
        return 2
    n = 2 if kind == "langretry" else 1
    if G.context_of(doc_id) == "projekt":
        n += 1 + (2 if doc_id % 5 == 0 else 0)
    return n


def context_doc_ids(n_docs: int, context: str) -> list[int]:
    return [d for d in range(n_docs) if G.context_of(d) == context]


def search_ids(n_docs: int, context: str) -> list[int]:
    """Entity ids a context's listing pages yield, one per listing row.

    Institution rows yield their sub-institution ``institution_ref(d,
    1, N)``; those collide 3:1 when ``N // 3`` is divisible by 3."""
    docs = context_doc_ids(n_docs, context)
    if context == "institution":
        return [G.institution_ref(d, 1, n_docs) for d in docs]
    return [G.entity_id(d) for d in docs]


def expected_duplicates(n_docs: int, context: str) -> list[int]:
    return sorted(i for i, n in Counter(search_ids(n_docs, context)).items() if n > 1)


def expected_state_keys(n_docs: int) -> dict[str, int]:
    """State rows per context once every context has been searched."""
    return {c: len(set(search_ids(n_docs, c))) for c in CONTEXTS}


def item_digest(rows) -> str:
    """Order-independent digest of ``(context, id, status, item,
    error_kind)`` rows (any iterable of mappings)."""
    lines = sorted(
        "\x1f".join(str(r[k]) for k in ("context", "id", "status", "item", "error_kind"))
        for r in rows
    )
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _item_names_doc(item_json: str | None, doc_id: int) -> bool:
    """A success item carries its entity id and, in ``name_de``, its
    doc number (``Projekt 7``, ``... Nachname 7``, ``Institution 7, ...``)."""
    try:
        item = json.loads(item_json or "")
    except ValueError:
        return False
    return (item.get("id") == G.entity_id(doc_id)
            and re.search(rf"\b{doc_id}\b", str(item.get("name_de"))) is not None)


def check_detail_rows(rows: list[dict], docs: list[int]) -> list[str]:
    """Mismatches between extracted rows and the formulas for the
    entities of ``docs`` (one row per entity, status and pages read)."""
    errors = []
    want = {(G.context_of(d), G.entity_id(d)): d for d in docs}
    got = Counter((r["context"], int(r["id"])) for r in rows)
    if set(got) != set(want):
        errors.append(f"entity set: {len(got)} extracted, {len(want)} expected")
    dup = [k for k, n in got.items() if n > 1]
    if dup:
        errors.append(f"{len(dup)} entities extracted more than once, e.g. {dup[0]}")
    for r in rows:
        d = want.get((r["context"], int(r["id"])))
        if d is None:
            continue
        if r["status"] != expected_status(d):
            errors.append(f"{r['context']}/{r['id']}: status {r['status']}, want {expected_status(d)}")
        elif int(r["pages_fetched"]) != expected_pages_fetched(d):
            errors.append(
                f"{r['context']}/{r['id']}: pages_fetched {r['pages_fetched']}, "
                f"want {expected_pages_fetched(d)}"
            )
        elif r["status"] == "success" and not _item_names_doc(r["item"], d):
            errors.append(f"{r['context']}/{r['id']}: item does not name doc {d}")
        if len(errors) >= 5:
            break
    return errors
