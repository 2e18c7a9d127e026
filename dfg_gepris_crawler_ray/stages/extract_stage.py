"""The fetch+extract stage: per-entity page-chain assembly with
retry-with-refresh semantics.

Replaces the reference's Scrapy request chain + middleware stack
(spiders/details.py:53-117, middlewares.py:15-114) with a row-local
state machine over the group of page variants of one entity:

- fetch = resolve the HTML copies of each page role from the grouped
  batch; the *cached* copy is the earliest ``warc_ts``, the *refreshed*
  copy the latest (the DBM-cache + ``refresh_cache`` semantics of
  cache_control.py:8-42 expressed over an immutable page corpus);
- validate V1 (structure) → V2 (exists) → V3 (language) in middleware
  order (settings.py:97-115);
- on UnexpectedLanguage / UnexpectedField / UnexpectedStructure →
  retry once with the refreshed copy (middlewares.py:15-30,39-52);
- PageDoesNotExistAnymore → status ``moved`` immediately (no retry,
  middlewares.py:31-37);
- exhausted retries → status ``error`` with an ``error_kind`` column
  (superset of the reference, which records only structure errors and
  silently drops exhausted language/field errors — we keep them as
  data; the history sink remains faithful).

Errors become rows, not job failures. One output row per entity:
``(id, context, status, item, error_kind, host, attempts, pages_fetched)``.
"""

from __future__ import annotations

from collections import defaultdict

import pyarrow as pa

from ..extract import details as D
from ..extract.errors import (
    PageDoesNotExistAnymoreError,
    UnexpectedDetailsPageStructure,
    UnexpectedFieldError,
    UnexpectedLanguageError,
)
from ..extract.validators import check_details_exists, check_details_structure, check_language
from ..kernels.htmlmini import parse_html
from ..kernels.jsoncanon import dumps_canonical

RETRYABLE = (UnexpectedLanguageError, UnexpectedFieldError, UnexpectedDetailsPageStructure, ValueError)

RESULT_SCHEMA = pa.schema(
    [
        ("id", pa.int64()),
        ("context", pa.string()),
        ("status", pa.string()),
        ("item", pa.string()),
        ("error_kind", pa.string()),
        ("host", pa.string()),
        ("attempts", pa.int32()),
        ("pages_fetched", pa.int32()),
    ]
)


class _Moved(Exception):
    pass


class _Failed(Exception):
    def __init__(self, kind: str, cause: Exception):
        super().__init__(str(cause))
        self.kind = kind


def _error_kind(exc: Exception) -> str:
    if isinstance(exc, UnexpectedLanguageError):
        return "language"
    if isinstance(exc, UnexpectedFieldError):
        return "field"
    if isinstance(exc, UnexpectedDetailsPageStructure):
        return "structure"
    return "other"


class EntityExtractor:
    """Parses the full page chain of one entity.

    ``copies``: {(kind, language): [html bytes sorted by warc_ts asc]}.
    """

    def __init__(self, strict: bool = False, max_attempts: int = 2):
        self.strict = strict
        self.max_attempts = max_attempts
        self.attempts = 0
        self.fetched = 0

    def _parse_validated(self, copies: list[bytes], language: str, url: str = ""):
        """Fetch-validate-parse with retry-with-refresh (V4 semantics)."""
        # cached copy first, refreshed copy on retry (distinct objects only)
        candidates = [copies[0]]
        if len(copies) > 1 and self.attempts + 1 < self.max_attempts + 1:
            candidates.append(copies[-1])
        last_exc: Exception | None = None
        for html in candidates[: self.max_attempts]:
            self.fetched += 1
            self.attempts += 1
            try:
                root = parse_html(html)
                check_details_structure(root, url)
                check_details_exists(root, url)
                check_language(root, language, url)
                return root
            except PageDoesNotExistAnymoreError:
                raise _Moved()
            except RETRYABLE as exc:
                last_exc = exc
                continue
        raise _Failed(_error_kind(last_exc), last_exc)

    def _parse_item(self, root, context: str, element_id: int, copies: dict):
        """Run the context parse chain; parse-time errors retry via the
        caller's loop (UnexpectedField surfaces from normalisation)."""
        if context == "person":
            return D.parse_person(root, element_id)
        if context == "institution":
            return D.parse_institution(root, element_id)
        # projekt: de → en → optional result-de → result-en chain
        de_item = D.parse_projekt_de(root, element_id)
        en_copies = copies.get(("details", "en"))
        if not en_copies:
            raise _Failed("missing_page", ValueError("no en page in corpus"))
        en_root = self._parse_validated(en_copies, "en")
        en_item, result_href = D.parse_projekt_en(en_root)
        result_de = result_en = None
        if result_href is not None and ("result", "de") in copies:
            r_de_root = self._parse_validated(copies[("result", "de")], "de")
            result_de = D.parse_projekt_result(r_de_root)
            r_en_copies = copies.get(("result", "en"))
            if not r_en_copies:
                raise _Failed("missing_page", ValueError("no result-en page in corpus"))
            r_en_root = self._parse_validated(r_en_copies, "en")
            result_en = D.parse_projekt_result(r_en_root, english=True)
        return D.assemble_projekt(de_item, en_item, result_de, result_en)

    def extract(self, context: str, element_id: int, copies: dict) -> dict:
        status, item_json, error_kind = "success", None, None
        try:
            de_copies = copies.get(("details", "de"))
            if not de_copies:
                raise _Failed("missing_page", ValueError("no de page in corpus"))
            # parse-time errors (e.g. UnexpectedField in normalisation) also
            # retry with the refreshed copy, like middlewares.py:25-30
            last_exc = None
            for attempt in range(self.max_attempts):
                idx = 0 if attempt == 0 else len(de_copies) - 1
                if attempt > 0 and len(de_copies) == 1:
                    break
                self.fetched += 1
                self.attempts += 1
                try:
                    root = parse_html(de_copies[idx])
                    check_details_structure(root)
                    check_details_exists(root)
                    check_language(root, "de")
                    item = self._parse_item(root, context, element_id, copies)
                    item_json = dumps_canonical(item)
                    last_exc = None
                    break
                except PageDoesNotExistAnymoreError:
                    raise _Moved()
                except _Moved:
                    raise
                except _Failed as exc:
                    last_exc = exc
                    break  # sub-page exhausted its own retries
                except RETRYABLE as exc:
                    last_exc = exc
                    continue
            if last_exc is not None:
                if isinstance(last_exc, _Failed):
                    raise last_exc
                raise _Failed(_error_kind(last_exc), last_exc)
        except _Moved:
            status = "moved"
        except _Failed as exc:
            if self.strict:
                raise
            status, error_kind = "error", exc.kind
        return dict(status=status, item=item_json, error_kind=error_kind,
                    attempts=self.attempts, pages_fetched=self.fetched)


def _extract_rows(tbl: pa.Table, strict: bool, politeness) -> list[dict]:
    """Shared inner loop: group an annotated detail-page table by entity
    key and run the chain per entity; returns result-row dicts."""
    by_entity: dict[tuple, dict] = {}
    hosts: dict[tuple, str] = {}
    ctxs = tbl.column("context").to_pylist()
    ids = tbl.column("id").to_pylist()
    kinds = tbl.column("kind").to_pylist()
    langs = tbl.column("language").to_pylist()
    hostcol = tbl.column("host").to_pylist()
    ts = tbl.column("warc_ts").to_pylist()
    htmls = tbl.column("html").to_pylist()
    for i in range(tbl.num_rows):
        key = (ctxs[i], ids[i])
        by_entity.setdefault(key, defaultdict(list))[(kinds[i], langs[i])].append(
            (ts[i], htmls[i])
        )
        hosts[key] = hostcol[i]
    rows = []
    host_fetches: dict[str, int] = defaultdict(int)
    # robots check (ROBOTSTXT_OBEY, settings.py:66): batched — ONE gate
    # round-trip per host per block, never per entity
    robots_blocked: set[tuple] = set()
    if politeness is not None and getattr(politeness, "has_robots", False):
        by_host: dict[str, list[tuple]] = defaultdict(list)
        for key in by_entity:
            by_host[hosts[key]].append(key)
        for host, keys in by_host.items():
            paths = [f"/gepris/{c}/{i}" for c, i in keys]
            for key, ok in zip(keys, politeness.allowed(host, paths)):
                if not ok:
                    robots_blocked.add(key)
    for (context, element_id), roles in sorted(by_entity.items()):
        if (context, element_id) in robots_blocked:
            rows.append(
                dict(
                    id=element_id, context=context, status="error",
                    item=None, error_kind="robots_blocked",
                    host=hosts[(context, element_id)], attempts=0,
                    pages_fetched=0,
                )
            )
            continue
        copies = {
            role: [h for _, h in sorted(pages_list, key=lambda p: p[0])]
            for role, pages_list in roles.items()
        }
        ex = EntityExtractor(strict=strict)
        out = ex.extract(context, element_id, copies)
        host_fetches[hosts[(context, element_id)]] += ex.fetched
        rows.append(
            dict(
                id=element_id,
                context=context,
                status=out["status"],
                item=out["item"],
                error_kind=out["error_kind"],
                host=hosts[(context, element_id)],
                attempts=out["attempts"],
                pages_fetched=out["pages_fetched"],
            )
        )
    if politeness is not None:
        politeness.account(host_fetches)
    return rows


def extract_bucket(batch, strict: bool = False, politeness=None):
    """``map_groups`` UDF over one hash bucket of annotated detail pages.

    Groups the bucket by entity key and runs the chain per entity —
    one Python call per *bucket* (thousands of entities), per-entity
    work vectorised at the grouping level.

    ``politeness``: optional ``PolitenessGate`` consulted once per
    (host, n_fetches) — the runtime token accounting of the per-host
    budget (settings.py:119-126 analogue).
    """
    if isinstance(batch, pa.Table):
        tbl = batch
    else:  # pandas
        tbl = pa.Table.from_pandas(batch)
    rows = _extract_rows(tbl, strict, politeness)
    return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)
