"""Deterministic synthetic pages corpus (Common-Crawl-style Parquet).

Builds the engine's primary input table
``pages(url, warc_ts, html, text, lang)`` (BASELINE.json ``input_hint``)
from a ``documents`` table — deterministically, with **every embedded
field value following a closed-form formula over ``doc_id``** so an
ANSI-SQL oracle over ``documents`` can reproduce the expected extraction
output exactly (the driver's correctness gate).

Formulas (N = count of documents; ``//`` = integer division):

- entity id           = 1000 + doc_id
- context             = projekt/person/institution for doc_id % 3 = 0/1/2
- host                = 'gepris.example.org' when doc_id % 10 < 7
                        else 'host{doc_id % 16}.example.net'
- K_P = (N+1)//3, K_I = N//3, K_J = (N+2)//3   (per-context doc counts)
- person ref k        = 1000 + 3*((doc_id*7 + k) % K_P) + 1
- institution ref k   = 1000 + 3*((doc_id*5 + k) % K_I) + 2
- projekt ref k       = 1000 + 3*((doc_id*11 + k) % K_J)
- projekt: name_de='Projekt {doc_id}', name_en='Project {doc_id}',
  beschreibung_de=trim(text[:120]), beschreibung_en=trim(text[:80]),
  Förderung variant = doc_id % 4 (von/bis, seit, in, laufend),
  DFG-Verfahren = Sachbeihilfen/Graduiertenkollegs by doc_id % 2,
  Internationaler Bezug 'Frankreich, Italien' when doc_id % 7 == 0,
  result pages when doc_id % 5 == 0 with Erstellungsjahr 2004+doc_id%16
- person: title by doc_id % 4 (Professor/Professorin/Privatdozent/Dr.),
  crucifix when doc_id % 17 == 0, mail user{doc_id}@example.org,
  internet when doc_id % 2 == 0, ORCID when doc_id % 5 == 0
- institution: name 'Institution {doc_id}, Abteilung {doc_id%7}',
  Telefon '+49 30 {doc_id}', subinstitution tree when doc_id % 2 == 0

Designated corrupt rows (priority order, FIXTURES.md §1):

1. doc_id % 101 == 5  → de page carries the not-found title → ``moved``
2. doc_id % 103 == 7  → DFG abbreviation missing in *both* copies →
   retries exhausted → ``error``
3. doc_id % 97 == 3   → cached copy (earliest warc_ts) has wrong
   language markup, a refreshed copy (later warc_ts) is good →
   retry-with-refresh succeeds → ``success``

warc_ts = 2024-01-01T00:00:00 + doc_id seconds (refresh copies +1h) —
strictly increasing within a host.
"""

from __future__ import annotations

import hashlib
import os
from datetime import datetime, timedelta

import pyarrow as pa

from ..kernels import urls as U

GEN_VERSION = 5

_T0 = datetime(2024, 1, 1)

HEAD_DE = '<a title="Sprache">English</a>'
HEAD_EN = '<a title="Language">Deutsch</a>'
ABBR = '<abbr title="Deutsche Forschungsgemeinschaft">DFG</abbr>'

_TITLES = ["Professor Dr. ", "Professorin Dr. ", "Privatdozent Dr. ", "Dr. "]


# ---------------------------------------------------------------------------
# field formulas (shared with the SQL oracles in __ray_entry__)
# ---------------------------------------------------------------------------

def context_of(doc_id: int) -> str:
    return ("projekt", "person", "institution")[doc_id % 3]


def entity_id(doc_id: int) -> int:
    return 1000 + doc_id


def host_of(doc_id: int) -> str:
    return U.DEFAULT_HOST if doc_id % 10 < 7 else f"host{doc_id % 16}.example.net"


def person_ref(doc_id: int, k: int, n_docs: int) -> int:
    return 1000 + 3 * ((doc_id * 7 + k) % ((n_docs + 1) // 3)) + 1


def institution_ref(doc_id: int, k: int, n_docs: int) -> int:
    return 1000 + 3 * ((doc_id * 5 + k) % (n_docs // 3)) + 2


def projekt_ref(doc_id: int, k: int, n_docs: int) -> int:
    return 1000 + 3 * ((doc_id * 11 + k) % ((n_docs + 2) // 3))


def corrupt_kind(doc_id: int) -> str | None:
    if doc_id % 101 == 5:
        return "moved"
    if doc_id % 103 == 7:
        return "error"
    if doc_id % 97 == 3:
        return "langretry"
    return None


def person_title(doc_id: int) -> str:
    return _TITLES[doc_id % 4]


def person_name_base(doc_id: int) -> str:
    return person_title(doc_id) + f"Vorname Nachname {doc_id}"


def foerderung_text(doc_id: int) -> str:
    v = doc_id % 4
    if v == 0:
        return f"Förderung von {2000 + doc_id % 18} bis {2003 + doc_id % 18}"
    if v == 1:
        return f"Förderung seit {2010 + doc_id % 12}"
    if v == 2:
        return f"Förderung in {1999 + doc_id % 20}"
    return "Befindet sich in der laufenden Förderung."


# ---------------------------------------------------------------------------
# page templates
# ---------------------------------------------------------------------------

def _details_shell(lang: str, context_title: str, body: str,
                   broken_structure: bool = False,
                   wrong_language: bool = False) -> str:
    toggle = HEAD_EN if lang == "en" else HEAD_DE
    if wrong_language:
        # markup of the *other* language → LanguageCheck fails
        toggle = HEAD_DE if lang == "en" else HEAD_EN
    abbr = "" if broken_structure else ABBR
    return (
        "<html><head><title>DFG - GEPRIS</title></head><body>"
        f"{toggle}{abbr}"
        f'<h2 class="h2-context-title">{context_title}</h2>'
        f"{body}</body></html>"
    )


def _pair(key: str, value_html: str, i: int = 0) -> str:
    return (
        f'<div><span class="name{i or ""}">{key}</span>'
        f'<span class="value{i or ""}">{value_html}</span></div>'
    )


def _p_pair(key: str, value_html: str) -> str:
    return (
        f'<p><span class="name">{key}</span>'
        f'<span class="value">{value_html}</span></p>'
    )


def _person_link(pid: int) -> str:
    return f'<a href="/gepris/person/{pid}">Person {pid}</a>'


def _inst_link(iid: int) -> str:
    return f'<a href="/gepris/institution/{iid}">Institution {iid}</a>'


def projekt_de_html(doc_id: int, text: str, n_docs: int) -> str:
    eid = entity_id(doc_id)
    beschreibung = text[:120].strip()
    attrs = [
        _pair("Förderung", foerderung_text(doc_id)),
    ]
    details = [
        _pair("Antragsteller", _person_link(person_ref(doc_id, 1, n_docs))),
        _pair("Leiterin", _person_link(person_ref(doc_id, 2, n_docs))),
        _pair(
            "Beteiligte Personen",
            _person_link(person_ref(doc_id, 3, n_docs))
            + "<br/>"
            + _person_link(person_ref(doc_id, 4, n_docs)),
        ),
        _pair("Antragstellende Institution", _inst_link(institution_ref(doc_id, 1, n_docs))),
        _pair("DFG-Verfahren", "Sachbeihilfen" if doc_id % 2 == 0 else "Graduiertenkollegs"),
        _pair("Fachliche Zuordnung", "Informatik"),
        _pair("Projektkennung", f"DFG - Projektnummer {eid}"),
    ]
    if doc_id % 7 == 0:
        details.append(_pair("Internationaler Bezug", "Frankreich, Italien"))
    body = (
        f'<h1 class="facelift">Projekt {doc_id}</h1>'
        '<div class="content_inside">'
        f'<div id="projektbeschreibung"><div id="projekttext">{beschreibung}</div>'
        + "".join(attrs)
        + '</div><div class="details">'
        + "".join(details)
        + "</div></div>"
    )
    return _details_shell("de", "Projekt", body)


def projekt_en_html(doc_id: int, text: str) -> str:
    beschreibung = text[:80].strip()
    result_tab = ""
    if doc_id % 5 == 0:
        result_tab = (
            f'<ul><li id="tabbutton2"><a href="/gepris/projekt/{entity_id(doc_id)}'
            f'/ergebnisse">Results</a></li></ul>'
        )
    body = (
        f'<h1 class="facelift">Project {doc_id}</h1>'
        '<div class="content_inside">'
        f'<div id="projektbeschreibung"><div id="projekttext">{beschreibung}</div></div>'
        f"{result_tab}</div>"
    )
    return _details_shell("en", "Project", body)


def projekt_result_html(doc_id: int, text: str, lang: str) -> str:
    summary = text[:100].strip() if lang == "de" else text[:60].strip()
    extra = ""
    if lang == "de":
        extra = (
            _pair("Erstellungsjahr", str(2004 + doc_id % 16))
            + '<ul class="publications">'
            f'<li>Publikation {doc_id}<a href="https://doi.example.org/{doc_id}">'
            f"doi:{doc_id}</a></li>"
            '<li>(Siehe online unter<a href="https://doi.example.org/x">x</a>)</li></ul>'
        )
    body = (
        f'<h1 class="facelift">{"Projekt" if lang == "de" else "Project"} {doc_id}</h1>'
        '<div class="content_inside"></div>'
        f'<div id="projektbeschreibung"><p>{summary}</p>{extra}</div>'
    )
    return _details_shell(lang, "Projekt" if lang == "de" else "Project", body)


def person_de_html(doc_id: int, n_docs: int,
                   broken_structure: bool = False,
                   wrong_language: bool = False,
                   moved: bool = False) -> str:
    name = person_name_base(doc_id)
    if doc_id % 17 == 0:
        name += " (†)"
    rows = [
        _p_pair(
            "Adresse",
            f"Institut {doc_id}<br/>Weg {doc_id % 90} 1<br/>{10000 + doc_id % 89999} Stadt",
        ),
        _p_pair("E-Mail", f"user{doc_id}<br/>example.org"),
    ]
    if doc_id % 2 == 0:
        rows.append(
            _p_pair("Internet", f'<a href="http://www.example.org/p{doc_id}">homepage</a>')
        )
    if doc_id % 5 == 0:
        orcid = f"0000-0002-{doc_id % 10000}"
        rows.append(
            _p_pair("ORCID-ID", f'<a href="https://orcid.org/{orcid}">{orcid}</a>')
        )
    trees = (
        '<div class="content_frame"><div id="projekteNachRolle"><ul>'
        '<li><a href="#">Als Antragsteller</a><ul>'
        f'<li><a href="/gepris/projekt/{projekt_ref(doc_id, 1, n_docs)}">P1</a></li>'
        f'<li><a href="/gepris/projekt/{projekt_ref(doc_id, 2, n_docs)}">P2</a></li>'
        "</ul></li></ul></div>"
    )
    if doc_id % 10 == 1:
        trees += (
            '<div id="preise"><ul><li><a href="#">DFG-Preis</a><ul>'
            f'<li><a href="https://www.dfg.de/preis/{doc_id}">{2000 + doc_id % 22} Preis</a></li>'
            "</ul></li></ul></div>"
        )
    trees += "</div>"
    title = (
        "Die angeforderte Seite konnte nicht gefunden werden." if moved else "Person"
    )
    body = (
        f'<h1 class="facelift">{name}</h1>'
        f'<div class="content_inside"><div class="details">{"".join(rows)}</div>{trees}</div>'
    )
    return _details_shell("de", title, body,
                          broken_structure=broken_structure,
                          wrong_language=wrong_language)


def institution_de_html(doc_id: int, n_docs: int) -> str:
    rows = [
        _p_pair("Adresse", f"Campus {doc_id}<br/>{10000 + doc_id % 89999} Stadt"),
        _p_pair("Telefon", f"+49 30 {doc_id}"),
        _p_pair("Internet", f'<a href="https://www.example.org/i{doc_id}">web</a>'),
    ]
    trees = ""
    if doc_id % 2 == 0:
        s1 = institution_ref(doc_id, 1, n_docs)
        s2 = institution_ref(doc_id, 2, n_docs)
        s3 = institution_ref(doc_id, 3, n_docs)
        trees = (
            '<div class="content_frame"><div id="untergeordneteInstitutionen"><ul>'
            f'<li><a href="/gepris/institution/{s1}">Sub</a></li>'
            f'<li><a href="/gepris/institution/{s2}">Sub</a><ul>'
            f'<li><a href="/gepris/institution/{s3}">SubSub</a></li></ul></li>'
            "</ul></div></div>"
        )
    body = (
        f'<h1 class="facelift">Institution {doc_id}<br/>Abteilung {doc_id % 7}</h1>'
        '<div class="content_inside">'
        f'<div id="address_data">{"".join(rows)}</div>{trees}</div>'
    )
    return _details_shell("de", "Institution", body)


def search_page_html(context: str, doc_ids: list[int], total: int, n_docs: int) -> str:
    """One search listing page (search_results fixtures shape)."""
    rows = []
    for d in doc_ids:
        eid = entity_id(d)
        if context == "projekt":
            inner = (
                f'<h2><a href="/gepris/projekt/{eid}">Projekt {d}</a></h2>'
                '<div class="details">'
                + _pair("Förderung", foerderung_text(d))
                + "</div>"
            )
        elif context == "person":
            inner = (
                f'<h2><a href="/gepris/person/{eid}">{person_name_base(d)}</a></h2>'
                f'<div class="beschreibung">Institut {d}<br/>{10000 + d % 89999} Stadt</div>'
            )
        else:
            sub = institution_ref(d, 1, n_docs)
            inner = (
                f'<h2><a href="/gepris/institution/{eid}">Institution {d}</a></h2>'
                f'<div class="subInstitution"><a href="/gepris/institution/{sub}">'
                f"Institution {sub - 1000}</a>Adresse {d}</div>"
            )
        rows.append(f'<div class="eintrag">{inner}</div>')
    total_fmt = f"{total:,}".replace(",", ".")
    body = (
        f'<span id="result-info" data-result-count="{total_fmt}"></span>'
        f'<div id="liste">{"".join(rows)}<div class="pagination">1 2 3</div></div>'
    )
    return _details_shell("de", "Suche", body)


def data_monitor_html() -> str:
    rows = "".join(
        f"<tr><td>{k}</td><td>{v}</td></tr>"
        for k, v in [
            ("Projekte", 136266),
            ("Personen", 87475),
            ("Institutionen", 37472),
            ("Projekte für die Abschlussberichtsdaten in GEPRIS vorliegen", 34874),
            ("Geistes- und Sozialwissenschaften", 31285),
            ("Lebenswissenschaften", 40557),
            ("Naturwissenschaften", 32017),
            ("Ingenieurwissenschaften", 26966),
            ("Infrastrukturförderung", 4816),
            ("Forschungsinfrastruktur", 625),
        ]
    )
    body = (
        "<p>Letzte Aktualisierung der Daten: 12.10.2021</p>"
        "<p>Aktuellstes Bewilligungsdatum: 30.09.2021</p>"
        '<span class="geprisversionsinfo">aktuelle Gepris-Version: 21.4.0<br/>'
        "aktuelle Index-Version: abc-123 (Tue Oct 12 03:00:10 CEST 2021)</span>"
        f"<table><tbody>{rows}</tbody></table>"
    )
    return _details_shell("de", "Monitor", body)


# ---------------------------------------------------------------------------
# batch generation
# ---------------------------------------------------------------------------

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def pages_for_doc(doc_id: int, text: str, n_docs: int) -> list[dict]:
    """All corpus pages derived from one document row."""
    ctx = context_of(doc_id)
    host = host_of(doc_id)
    ts = _T0 + timedelta(seconds=doc_id)
    ts_fresh = ts + timedelta(hours=1)
    kind = corrupt_kind(doc_id)
    out = []

    def page(url, html, lang, when=ts):
        out.append(
            dict(url=url, warc_ts=when, html=html.encode(), text=text, lang=lang)
        )

    de_url = U.details_page_url(entity_id(doc_id), ctx, "de", host)
    if ctx == "projekt":
        de_html = projekt_de_html(doc_id, text, n_docs)
        en_html = projekt_en_html(doc_id, text)
    elif ctx == "person":
        de_html = person_de_html(doc_id, n_docs)
        en_html = None
    else:
        de_html = institution_de_html(doc_id, n_docs)
        en_html = None

    if kind == "moved":
        # not-found title regardless of context (shell carries the marker)
        page(de_url, person_de_html(doc_id, n_docs, moved=True), "de")
    elif kind == "error":
        broken = de_html.replace(ABBR, "")
        page(de_url, broken, "de")
        page(de_url, broken, "de", ts_fresh)  # refresh copy equally broken
    elif kind == "langretry":
        if ctx == "person":
            bad = person_de_html(doc_id, n_docs, wrong_language=True)
        else:
            bad = de_html.replace(HEAD_DE, HEAD_EN)
        page(de_url, bad, "en")
        page(de_url, de_html, "de", ts_fresh)  # good refreshed copy
    else:
        page(de_url, de_html, "de")

    if ctx == "projekt":
        page(U.details_page_url(entity_id(doc_id), ctx, "en", host), en_html, "en")
        if doc_id % 5 == 0:
            page(
                U.result_page_url(entity_id(doc_id), ctx, "de", host),
                projekt_result_html(doc_id, text, "de"),
                "de",
            )
            page(
                U.result_page_url(entity_id(doc_id), ctx, "en", host),
                projekt_result_html(doc_id, text, "en"),
                "en",
            )
    return out


SEARCH_PAGE_SIZE = 200


def search_pages(n_docs: int) -> list[dict]:
    """Search listing pages for all three contexts + the monitor page."""
    out = []
    by_ctx = {"projekt": [], "person": [], "institution": []}
    for d in range(n_docs):
        by_ctx[context_of(d)].append(d)
    ts = _T0
    for ctx, ids in by_ctx.items():
        total = len(ids)
        for start in range(0, total, SEARCH_PAGE_SIZE):
            chunk = ids[start : start + SEARCH_PAGE_SIZE]
            url = U.search_results_url(ctx, SEARCH_PAGE_SIZE, start)
            html = search_page_html(ctx, chunk, total, n_docs)
            out.append(
                dict(url=url, warc_ts=ts, html=html.encode(), text="", lang="de")
            )
    out.append(
        dict(
            url=U.data_monitor_url(),
            warc_ts=ts,
            html=data_monitor_html().encode(),
            text="",
            lang="de",
        )
    )
    return out


def pages_cache_dir(sf_dir: str, replicate: int = 1) -> str:
    key = hashlib.sha1(
        f"{os.path.abspath(sf_dir)}:v{GEN_VERSION}:r{replicate}".encode()
    ).hexdigest()[:12]
    return f"/tmp/gepris_pages_cache/{key}"


def ensure_pages(sf_dir: str, replicate: int = 1) -> str:
    """Generate (once, cached) the pages corpus for an sf dir; returns the
    parquet directory. Runs distributed via Ray Data; the output is
    partitioned parquet (resumable layout, atomic publish).

    ``replicate`` scales the corpus: the document set is logically
    tiled ``replicate`` times (replica r contributes doc ids
    ``d + r*N``), all field formulas staying functions of the effective
    doc id — used by the bench to create enough work to measure
    scaling without new external data. Texts are broadcast via
    ``ray.put`` (small side), page HTML is generated in parallel over a
    ``range(n_total)`` Dataset.
    """
    out_dir = pages_cache_dir(sf_dir, replicate)
    done = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(done):
        return out_dir
    import pyarrow.parquet as pq
    import ray
    import ray.data

    docs_path = os.path.join(sf_dir, "documents.parquet")
    docs = pq.read_table(docs_path, columns=["doc_id", "text"])
    n_base = docs.num_rows
    n_total = n_base * replicate
    texts = [None] * n_base
    for doc_id, text in zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()):
        texts[doc_id] = text
    texts_ref = ray.put(texts)

    def gen(batch: pa.Table) -> pa.Table:
        lookup = ray.get(texts_ref)
        rows = []
        for doc_id in batch.column("id").to_pylist():
            rows.extend(pages_for_doc(doc_id, lookup[doc_id % n_base], n_total))
        return pa.Table.from_pylist(rows, schema=PAGES_SCHEMA)

    ds = ray.data.range(n_total, override_num_blocks=max(8, n_total // 4000))
    pages = ds.map_batches(gen, batch_format="pyarrow", batch_size=2000)

    import shutil

    tmp_dir = out_dir + ".tmp"
    for d in (tmp_dir, out_dir):
        if os.path.exists(d):
            shutil.rmtree(d)
    pages.write_parquet(tmp_dir)
    # append the driver-side search/monitor pages as one extra file
    extra = pa.Table.from_pylist(search_pages(n_total), schema=PAGES_SCHEMA)
    # shard the listing pages across many small files: they are ~5 KB of
    # dense anchors each, and a single monolithic file is effectively
    # UNSPLITTABLE for read_parquet at the reader's block target — one
    # task would own the whole anchor-heaviest slice of the corpus
    # (measured: a 13.4 s straggler in every HTML-scanning op at
    # replicate=256). File-level sharding splits regardless of reader
    # heuristics; read_pages' kind prefilter matches the name prefix.
    n_shards = max(1, min(64, extra.num_rows // 256))
    per = -(-extra.num_rows // n_shards)
    for s in range(n_shards):
        part = extra.slice(s * per, per)
        if part.num_rows:
            pq.write_table(
                part,
                os.path.join(tmp_dir, f"search_pages-{s:04d}.parquet"),
            )
    os.replace(tmp_dir, out_dir)  # atomic publish
    with open(done, "w") as f:
        f.write("ok")
    return out_dir
