"""The fetch+extract stage: per-entity page-chain assembly with
retry-with-refresh semantics.

Replaces the reference's Scrapy request chain + middleware stack
(spiders/details.py:53-117, middlewares.py:15-114) with a row-local
state machine over the group of page variants of one entity. Every
page role (de, en, result-de, result-en) goes through one attempt
method, ``EntityExtractor._fetch`` — V4 written once:

- fetch = the HTML copies of the role from the grouped batch; the
  *cached* copy is the earliest ``warc_ts``, the *refreshed* copy the
  latest (the DBM-cache + ``refresh_cache`` semantics of
  cache_control.py:8-42 over an immutable page corpus);
- each try validates V1 (structure) → V2 (exists) → V3 (language) in
  middleware order (settings.py:97-115), then parses;
- UnexpectedLanguage / UnexpectedField / UnexpectedStructure (or a
  parse ValueError) → the refreshed copy, if the entity had made fewer
  than ``MAX_ATTEMPTS`` tries when the role's fetch began
  (middlewares.py:15-30,39-52);
- PageDoesNotExistAnymore → status ``moved`` at once (no retry,
  middlewares.py:31-37);
- retries exhausted → status ``error`` with an ``error_kind`` column
  (superset of the reference, which records only structure errors and
  silently drops exhausted language/field errors — we keep them as
  data; the history sink remains faithful).

The de page's try runs the whole chain (sub-page fetches, parse, JSON
canon), so a parse error anywhere in it refetches the de page; a
sub-page that exhausts its own tries fails the entity.

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

#: the semantic retry budget (RETRY_TIMES): a page role tries its
#: refreshed copy only while its entity has made fewer tries than this
MAX_ATTEMPTS = 2

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

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.attempts = 0
        self.fetched = 0

    def _fetch(self, copies: list[bytes], language: str, parse=None):
        """V4 over one page role: the cached copy, then the refreshed one
        if the entity had made fewer than ``MAX_ATTEMPTS`` tries before.
        Each try validates (V1-V3) and runs ``parse(root)``, so a
        retryable parse error refetches too (middlewares.py:25-30).
        Returns ``parse(root)``, or the validated root when ``parse`` is
        None."""
        tries = copies[:1]
        if len(copies) > 1 and self.attempts < MAX_ATTEMPTS:
            tries.append(copies[-1])
        last = None
        for html in tries:
            self.fetched += 1
            self.attempts += 1
            try:
                root = parse_html(html)
                check_details_structure(root)
                check_details_exists(root)
                check_language(root, language)
                return root if parse is None else parse(root)
            except PageDoesNotExistAnymoreError:
                raise _Moved()
            except RETRYABLE as exc:
                last = exc
        raise _Failed(_error_kind(last), last)

    def _parse_item(self, root, context: str, element_id: int, copies: dict):
        """Run the context parse chain. A sub-page's parse runs outside
        its own attempt, so its retryable errors retry the de page."""
        if context == "person":
            return D.parse_person(root, element_id)
        if context == "institution":
            return D.parse_institution(root, element_id)
        # projekt: de → en → optional result-de → result-en chain
        de_item = D.parse_projekt_de(root, element_id)
        en_root = self._fetch(_pages(copies, "details", "en"), "en")
        en_item, result_href = D.parse_projekt_en(en_root)
        result_de = result_en = None
        if result_href is not None and ("result", "de") in copies:
            result_de = D.parse_projekt_result(self._fetch(copies[("result", "de")], "de"))
            r_en_root = self._fetch(_pages(copies, "result", "en"), "en")
            result_en = D.parse_projekt_result(r_en_root, english=True)
        return D.assemble_projekt(de_item, en_item, result_de, result_en)

    def extract(self, context: str, element_id: int, copies: dict) -> dict:
        status, item_json, error_kind = "success", None, None
        try:
            item_json = self._fetch(
                _pages(copies, "details", "de"), "de",
                lambda root: dumps_canonical(self._parse_item(root, context, element_id, copies)),
            )
        except _Moved:
            status = "moved"
        except _Failed as exc:
            if self.strict:
                raise
            status, error_kind = "error", exc.kind
        return dict(status=status, item=item_json, error_kind=error_kind,
                    attempts=self.attempts, pages_fetched=self.fetched)


def _pages(copies: dict, kind: str, language: str) -> list[bytes]:
    """The copies of one page role; a role the corpus lacks fails the
    entity with ``missing_page``."""
    found = copies.get((kind, language))
    if not found:
        raise _Failed("missing_page", ValueError(f"no {kind}-{language} page in corpus"))
    return found


def extract_bucket(batch: pa.Table, strict: bool = False, politeness=None) -> pa.Table:
    """``map_groups`` UDF (``batch_format="pyarrow"``) over one hash
    bucket of annotated detail pages.

    Groups the bucket by entity key and runs the chain per entity —
    one Python call per *bucket* (thousands of entities), per-entity
    work vectorised at the grouping level.

    ``politeness``: optional ``PolitenessGate`` consulted once per
    (host, n_fetches) — the runtime token accounting of the per-host
    budget (settings.py:119-126 analogue).
    """
    by_entity: dict[tuple, dict] = {}
    hosts: dict[tuple, str] = {}
    ctxs = batch.column("context").to_pylist()
    ids = batch.column("id").to_pylist()
    kinds = batch.column("kind").to_pylist()
    langs = batch.column("language").to_pylist()
    hostcol = batch.column("host").to_pylist()
    ts = batch.column("warc_ts").to_pylist()
    htmls = batch.column("html").to_pylist()
    for i in range(batch.num_rows):
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
        host = hosts[(context, element_id)]
        if (context, element_id) in robots_blocked:
            out = dict(status="error", item=None, error_kind="robots_blocked",
                       attempts=0, pages_fetched=0)
        else:
            copies = {
                role: [h for _, h in sorted(pages_list, key=lambda p: p[0])]
                for role, pages_list in roles.items()
            }
            ex = EntityExtractor(strict=strict)
            out = ex.extract(context, element_id, copies)
            host_fetches[host] += ex.fetched
        rows.append(dict(id=element_id, context=context, host=host, **out))
    if politeness is not None:
        politeness.account(host_fetches)
    return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)
