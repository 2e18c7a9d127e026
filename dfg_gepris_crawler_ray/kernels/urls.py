"""Canonical URL / entity-key functions — the frontier key algebra.

The reference's canonical crawl key is ``(context, id:int)`` with URLs
of the form ``{BASE}/gepris/{context}/{id}``
(``gepris_crawler/gepris_helper.py:86-89``); path parsing via
``is_gepris_path`` (``gepris_helper.py:100-106``) and ``extract_id``
(``data_transformations.py:10-27``). We keep the same key algebra but
over an arbitrary base host so synthetic multi-host corpora exercise
per-host politeness partitioning.

These are pure and cheap; batch-level vectorised variants live in
:mod:`dfg_gepris_crawler_ray.sources.pages`.
"""

from __future__ import annotations

from urllib.parse import urlsplit, parse_qs

CONTEXTS = ("projekt", "person", "institution")
LANGUAGES = ("de", "en")

#: default synthetic host (stands in for gepris.dfg.de)
DEFAULT_HOST = "gepris.example.org"

SEARCH_TASK = "doSearchExtended"
DATA_MONITOR_TASK = "showMonitor"


def check_valid_context(context: str) -> None:
    """gepris_helper.py:30-32"""
    if context not in CONTEXTS:
        raise ValueError(f"Context must be one of {list(CONTEXTS)}, but was \"{context}\"")


def is_gepris_path(url_path: str, context_to_check: str | None = None) -> bool:
    """``/gepris/{ctx}/{id}`` path predicate (gepris_helper.py:100-106)."""
    splits = url_path.split("/")
    if len(splits) == 4 and splits[1] == "gepris":
        if context_to_check:
            return splits[2] == context_to_check
        return True
    return False


def extract_id(url_path: str):
    """Trailing id string of a gepris path, else None (data_transformations.py:10-12)."""
    if is_gepris_path(url_path):
        return url_path.split("/")[-1]
    return None


def extract_person_id(url_path: str):
    """data_transformations.py:15-17"""
    if is_gepris_path(url_path, context_to_check="person"):
        return extract_id(url_path)
    return None


def extract_institution_id(url_path: str):
    """data_transformations.py:20-22"""
    if is_gepris_path(url_path, context_to_check="institution"):
        return extract_id(url_path)
    return None


def extract_projekt_id(url_path: str):
    """data_transformations.py:25-27"""
    if is_gepris_path(url_path, context_to_check="projekt"):
        return extract_id(url_path)
    return None


def details_url(element_id, context: str, host: str = DEFAULT_HOST) -> str:
    """Canonical details-page URL (gepris_helper.py:86-89)."""
    check_valid_context(context)
    return f"https://{host}/gepris/{context}/{element_id}"


def details_page_url(element_id, context: str, language: str, host: str = DEFAULT_HOST) -> str:
    """URL of a specific language variant; ``language=de|en`` query param.

    Mirrors the formdata ``language`` param of ``details_request``
    (gepris_helper.py:72-83) folded into the URL, since our fetch is a
    table lookup keyed by full URL.
    """
    if language not in LANGUAGES:
        raise ValueError(f'Language must be either "de" or "en", but was "{language}"')
    return f"{details_url(element_id, context, host)}?language={language}"


def result_page_url(element_id, context: str, language: str, host: str = DEFAULT_HOST) -> str:
    """URL of a projekt result page variant (spiders/details.py:92,116)."""
    return f"https://{host}/gepris/{context}/{element_id}/ergebnisse?language={language}"


def search_results_url(
    context: str, results_per_site: int, index: int, host: str = DEFAULT_HOST
) -> str:
    """Paginated search-listing URL (gepris_helper.py:35-41,58-69)."""
    return (
        f"https://{host}/gepris/OCTOPUS?context={context}&task={SEARCH_TASK}"
        f"&hitsPerPage={results_per_site}&index={index}"
    )


def data_monitor_url(host: str = DEFAULT_HOST) -> str:
    """gepris_helper.py:48-55"""
    return f"https://{host}/gepris/OCTOPUS?task={DATA_MONITOR_TASK}"


#: alternate page source for the person_details politeness-workaround
#: spider (reference gepris_helper.py:27,44-45)
GOOGLE_CACHE_BASE_URL = "https://webcache.googleusercontent.com/search?q=cache:"


def google_cache_url(actual_url: str) -> str:
    """gepris_helper.py:44-45"""
    return GOOGLE_CACHE_BASE_URL + actual_url


def parse_page_url(url: str) -> dict:
    """Classify a corpus URL into its crawl role.

    Returns a dict with keys:

    - ``kind``: ``details`` | ``result`` | ``search`` | ``monitor`` | ``other``
    - ``context``: entity context or '' (search carries its own context param)
    - ``id``: entity id (int) or -1
    - ``language``: ``de``/``en``/'' (query param; defaults to ``de``)
    - ``index``: search page index or -1
    - ``host``: netloc

    This is the inverse of the URL builders above and the engine's
    canonicalizer (frontier key function — SURVEY.md §2.2 M8).
    """
    parts = urlsplit(url)
    host = parts.netloc
    path = parts.path
    q = parse_qs(parts.query)
    lang = q.get("language", ["de"])[0]
    segs = path.split("/")
    if path.endswith("/OCTOPUS"):
        task = q.get("task", [""])[0]
        if task == DATA_MONITOR_TASK:
            return dict(kind="monitor", context="", id=-1, language="de", index=-1, host=host)
        if task == SEARCH_TASK:
            return dict(
                kind="search",
                context=q.get("context", [""])[0],
                id=-1,
                language="de",
                index=int(q.get("index", ["0"])[0]),
                host=host,
            )
        return dict(kind="other", context="", id=-1, language=lang, index=-1, host=host)
    if len(segs) >= 4 and segs[1] == "gepris" and segs[2] in CONTEXTS:
        try:
            eid = int(segs[3])
        except ValueError:
            return dict(kind="other", context=segs[2], id=-1, language=lang, index=-1, host=host)
        if len(segs) == 5 and segs[4] == "ergebnisse":
            return dict(kind="result", context=segs[2], id=eid, language=lang, index=-1, host=host)
        if len(segs) == 4:
            return dict(kind="details", context=segs[2], id=eid, language=lang, index=-1, host=host)
    return dict(kind="other", context="", id=-1, language=lang, index=-1, host=host)
