"""Per-host template/boilerplate detection over the pages corpus —
the "strip the site chrome" stage of a web-text pipeline (jusText /
trafilatura learn per-site boilerplate from repetition; CCNet and
RefinedWeb drop lines shared across many pages of a host).

A page's HTML is segmented at tag boundaries (``b"><"`` — the
line-analogue for single-line crawl HTML); a segment is BOILERPLATE
for a host when it appears on at least ``min_frac`` of that host's
pages (templates, navigation, footers), and CONTENT otherwise.

Distributed shape — two scans over pages, one model-sized exchange:

1. **counting scan**: each batch emits per-(host, segment-hash)
   page-count partials (segments deduped within a page first, so the
   count is pages-containing, not occurrences) plus one page-count
   row per host (sentinel ``seg_hash = -1``) → 64-way segment-keyed
   exchange with vectorized pandas sums per bucket — the exchange
   carries distinct (host, segment) rows, i.e. hosts × template
   size, not the corpus;
2. **verdict broadcast**: boilerplate segment hashes per host (and
   per-host page totals) go to the object store once — bounded by
   hosts × per-host template size, the same budget a jusText
   stoplist would occupy;
3. **removal scan**: per page, segments hash-checked against the
   host's boilerplate set vectorized (``np.isin`` on the sorted hash
   array); output one row per page with kept/dropped segment and
   byte tallies.

At 10^8 hosts the broadcast verdict is the size assumption to watch:
shard it by host-hash and route batches (the politeness-bucket
pattern in ``frontier/politeness.py``) — the two-scan shape is
unchanged.  No SQL oracle (pages are generated, not a gate view):
ground truth is pinned by a brute-force pytest over the sf0.001
corpus.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..kernels.partitioning import keyed_exchange
from ..testdata.gen_pages import ensure_pages


def _seg_hash64(seg: bytes) -> int:
    """Stable signed-int64 hash of one HTML segment."""
    return int.from_bytes(hashlib.md5(seg).digest()[:8], "big", signed=True)


def _page_segments(html: bytes) -> list[bytes]:
    """Tag-boundary segments of one page (single-line crawl HTML's
    analogue of lines)."""
    return html.split(b"><")


def _host_of(url: str) -> str:
    return url.split("/", 3)[2]


def host_boilerplate(
    sf_dir: str, min_frac: float = 0.5, replicate: int = 1
) -> "ray.data.Dataset":
    """(url, host, n_segments, n_boilerplate, content_bytes) per page:
    how much of each page survives removing its host's boilerplate
    segments."""
    pages_dir = ensure_pages(sf_dir, replicate)
    ds = ray.data.read_parquet(pages_dir, columns=["url", "html"])

    def count_partial(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        ctr: Counter = Counter()  # (host, seg_hash) -> pages containing
        pages: Counter = Counter()  # host -> pages
        for url, html in zip(urls, htmls):
            host = _host_of(url)
            pages[host] += 1
            for h in {_seg_hash64(s) for s in _page_segments(html)}:
                ctr[(host, h)] += 1
        rows_host = [h for (h, _), _c in ctr.items()] + list(pages.keys())
        rows_seg = [s for (_, s), _c in ctr.items()] + [-1] * len(pages)
        rows_n = list(ctr.values()) + list(pages.values())
        return pa.table(
            {
                "host": pa.array(rows_host, type=pa.string()),
                "seg_hash": pa.array(np.asarray(rows_seg, dtype=np.int64)),
                "n": pa.array(rows_n, type=pa.int64()),
            }
        )

    def bucket_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["host", "seg_hash"], as_index=False)["n"].sum()

    agg = keyed_exchange(
        ds.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True),
        "seg_hash", bucket_sum,
    ).to_pandas()
    # verdict: model-sized (hosts × template segments)
    page_totals = (
        agg[agg.seg_hash == -1].groupby("host")["n"].sum().to_dict()
    )
    segs = agg[agg.seg_hash != -1]
    thresh = segs["host"].map(page_totals) * min_frac
    boiler = segs[segs["n"] >= thresh]
    verdict = {
        host: np.sort(grp["seg_hash"].to_numpy())
        for host, grp in boiler.groupby("host")
    }
    verdict_ref = ray.put(verdict)

    def remove(batch: pa.Table) -> pa.Table:
        v = ray.get(verdict_ref)
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        hosts, n_segs, n_boiler, content = [], [], [], []
        for url, html in zip(urls, htmls):
            host = _host_of(url)
            segs_ = _page_segments(html)
            hashes = np.fromiter(
                (_seg_hash64(s) for s in segs_), dtype=np.int64, count=len(segs_)
            )
            bset = v.get(host)
            if bset is not None and len(bset):
                pos = np.searchsorted(bset, hashes)
                pos_c = np.clip(pos, 0, len(bset) - 1)
                is_b = bset[pos_c] == hashes
            else:
                is_b = np.zeros(len(segs_), dtype=bool)
            hosts.append(host)
            n_segs.append(len(segs_))
            n_boiler.append(int(is_b.sum()))
            content.append(
                int(sum(len(s) for s, b in zip(segs_, is_b) if not b))
            )
        return pa.table(
            {
                "url": batch.column("url"),
                "host": pa.array(hosts, type=pa.string()),
                "n_segments": pa.array(n_segs, type=pa.int64()),
                "n_boilerplate": pa.array(n_boiler, type=pa.int64()),
                "content_bytes": pa.array(content, type=pa.int64()),
            }
        )

    return ds.map_batches(remove, batch_format="pyarrow", zero_copy_batch=True)


def host_distinct_urls(pages_dir: str) -> "ray.data.Dataset":
    """(host, distinct_urls) — exact distinct-URL count per host that
    survives a HOT key (the corpus's 70%-hot host `gepris.example.org`
    would otherwise funnel into ONE reduce task under a plain
    groupby(host) distinct).

    The exchange routes by the FULL distinct key (host, url): every
    copy of a URL lands in one bucket, so each bucket deduplicates and
    counts its share of a host independently (the hot host spreads
    over all 64 buckets, no double counting by construction), then a
    tiny per-host Sum reassembles the exact total. Per-batch dedup
    bounds the exchange by distinct urls, not page rows. This is the
    skew treatment to reach for whenever one key holds a constant
    fraction of a 100 TB corpus.
    """
    from ..sources.pages import read_pages

    from ray.data.aggregate import Sum

    ds = read_pages(pages_dir, columns=["url"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({"url": batch.column("url").to_pylist()}).drop_duplicates()
        df["host"] = df["url"].str.split("/").str[2]
        return df[["host", "url"]]

    def count_shard(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("host", as_index=False)["url"].nunique()
        out.columns = ["host", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["host", "url"], count_shard,
    ).groupby("host").aggregate(Sum("n", alias_name="distinct_urls"))


_ANCHOR_RE = None


def _anchor_pairs(html: bytes) -> list[tuple[str, str]]:
    """(href, anchor_text) pairs of one page — the link-format spec
    both the distributed path and the brute census share (the
    AGGREGATION machinery is what differs between them)."""
    global _ANCHOR_RE
    import re

    if _ANCHOR_RE is None:
        _ANCHOR_RE = re.compile(rb'<a href="([^"]+)">([^<]*)</a>')
    return [
        (h.decode("utf-8", "replace"), t.decode("utf-8", "replace"))
        for h, t in _ANCHOR_RE.findall(html)
        if h != b"#"
    ]


def anchor_term_index(pages_dir: str, k: int = 3) -> "ray.data.Dataset":
    """(target, term, cnt) — the INBOUND ANCHOR-TEXT index: for every
    link target, the top-``k`` terms other pages use when linking to
    it (count desc, term asc).  Anchor text is the classic off-page
    relevance signal (it describes the TARGET, not the source — the
    original PageRank paper's anchor file, used by every major web
    index since); a crawler feeds it back as both a ranking feature
    and a frontier-prioritization hint for unfetched URLs.

    Distributed shape — one scan, one target-keyed exchange:

    1. **extraction scan**: per page, regex-extract (href, text)
       pairs, tokenize on whitespace, and pre-aggregate per-batch
       (target, term) counts — HTML never leaves the scan and the
       exchange carries distinct (target, term) partials, not link
       occurrences;
    2. **target-keyed exchange** (vectorized Arrow per bucket): exact
       per-(target, term) totals, then the per-target top-k prune —
       output is ≤ targets × k rows.

    Self-links count too (the generator's language-switch links) —
    the census and the pytest pin the same contract."""
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "html"])

    global _ANCHOR_RE
    _anchor_pairs(b"")  # compile the shared link-format regex once

    def extract(batch: pa.Table) -> pa.Table:
        # count distinct RAW (href, text) pairs first (C-level regex +
        # Counter over bytes tuples), then decode/tokenize only once per
        # distinct pair — link markup repeats heavily across pages, so
        # this skips most of the Python-level split/decode work
        pair_cnt: Counter = Counter()
        for html in batch.column("html").to_pylist():
            pair_cnt.update(_ANCHOR_RE.findall(html))
        cnt: Counter = Counter()
        for (href, text), n in pair_cnt.items():
            if href == b"#":
                continue
            hd = href.decode("utf-8", "replace")
            for term in text.decode("utf-8", "replace").split():
                cnt[(hd, term)] += n
        targets = [t for (t, _) in cnt]
        terms = [w for (_, w) in cnt]
        # Arrow block (not pandas): the (target, term) partials are the
        # exchange payload — Arrow string buffers slice zero-copy through
        # the sort-shuffle where pandas object columns would be pickled
        return pa.table(
            {"target": pa.array(targets, type=pa.string()),
             "term": pa.array(terms, type=pa.string()),
             "cnt": pa.array(
                 np.fromiter(cnt.values(), dtype=np.int64, count=len(cnt)))}
        )

    def per_target_topk(t: pa.Table) -> pa.Table:
        # fully Arrow/numpy (measured: the pandas groupby+head form was
        # 49.5 s of UDF CPU over the 11M-row exchange; this is ~6x less):
        # C++ hash-agg for exact totals, one vectorized 3-key sort, then
        # a run-boundary cumcount for the per-target head(k)
        agg = pa.TableGroupBy(t, ["target", "term"]).aggregate([("cnt", "sum")])
        idx = pc.sort_indices(
            agg,
            sort_keys=[("target", "ascending"), ("cnt_sum", "descending"),
                       ("term", "ascending")],
        )
        s = agg.take(idx)
        if s.num_rows == 0:
            return pa.table(
                {"target": pa.array([], type=pa.string()),
                 "term": pa.array([], type=pa.string()),
                 "cnt": pa.array([], type=pa.int64())}
            )
        tgt = s.column("target").combine_chunks()
        neq = pc.not_equal(
            tgt.slice(1), tgt.slice(0, s.num_rows - 1)
        ).to_numpy(zero_copy_only=False)
        starts = np.empty(s.num_rows, dtype=bool)
        starts[0] = True
        starts[1:] = neq
        pos = np.arange(s.num_rows, dtype=np.int64)
        rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
        s = s.filter(pa.array(rank < k))
        return s.rename_columns(["target", "term", "cnt"])

    return keyed_exchange(
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True),
        "target", per_target_topk, batch_format="pyarrow",
    )


_LANG_PARAM_RE = None


def language_variant_clusters(pages_dir: str) -> "ray.data.Dataset":
    """(canonical, n_variants, langs) — alternate-language clustering:
    URLs that differ only in their ``language=de|en`` query parameter
    collapse onto one canonical URL (the hreflang/alternate contract a
    crawler needs so language twins don't double-fetch, double-count,
    or split their link signals; reference parity: the language-switch
    links on every details page, `kernels/urls.py` canonical key
    extractors).  ``langs`` is the sorted comma-joined distinct
    language set ('-' marks a URL with no language parameter).

    Distributed shape — one scan, one canonical-keyed exchange:

    - per batch: URL dedup, vectorized regex canonicalization +
      language extraction (compiled once per process), pre-aggregated
      to distinct (canonical, url, lang) rows;
    - canonical-keyed exchange: per-cluster distinct-variant count and
      the sorted language-set join, both vectorized pandas."""
    global _LANG_PARAM_RE
    import re

    from ..sources.pages import read_pages

    if _LANG_PARAM_RE is None:
        _LANG_PARAM_RE = re.compile(r"[?&]language=(de|en)")

    ds = read_pages(pages_dir, columns=["url"])

    def canon_rows(batch: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {"url": batch.column("url").to_pylist()}
        ).drop_duplicates()
        lang = df["url"].str.extract(_LANG_PARAM_RE, expand=False)
        df["lang"] = lang.fillna("-")
        df["canonical"] = df["url"].str.replace(_LANG_PARAM_RE, "", regex=True)
        return df[["canonical", "url", "lang"]]

    def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["canonical", "url", "lang"])
        out = d.groupby("canonical").agg(
            n_variants=("url", "nunique"),
            langs=("lang", lambda s: ",".join(sorted(set(s)))),
        ).reset_index()
        out["n_variants"] = out["n_variants"].astype("int64")
        return out

    return keyed_exchange(
        ds.map_batches(canon_rows, batch_format="pyarrow", zero_copy_batch=True),
        "canonical", per_cluster,
    )


def host_link_graph(pages_dir: str) -> "ray.data.Dataset":
    """(src_host, dst_host, n_links) — the HOST-LEVEL link matrix:
    every anchor href resolved against its page's host (site-relative
    hrefs stay on-host, absolute ones carry their own netloc), counted
    per (source-host, target-host) pair.  The host graph is the
    web-graph aggregate a crawler actually schedules with — host-level
    PageRank, mirror corroboration, seed discovery, and per-host
    outlink budgets all read it instead of the page-level graph
    (reference parity: the discovered-id fan-out of
    `spiders/details.py` is this graph's on-site diagonal).

    Link-format spec shared with :func:`anchor_term_index` /
    ``_anchor_pairs`` (same regex, same ``#`` skip) so the two censuses
    can never drift apart.

    Distributed shape — one extraction scan + ONE keyed exchange over
    pre-aggregated host pairs: HTML never leaves the scan; the
    exchange carries distinct (src_host, dst_host) partials per batch
    (≤ hosts×targets rows, not links)."""
    from collections import Counter

    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "html"])

    def extract(batch: pa.Table) -> pd.DataFrame:
        cnt: Counter = Counter()
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        for url, html in zip(urls, htmls):
            src = url.split("/")[2]
            for href, _txt in _anchor_pairs(html):
                if href.startswith("http://") or href.startswith("https://"):
                    dst = href.split("/")[2]
                else:
                    dst = src
                cnt[(src, dst)] += 1
        if not cnt:
            return pd.DataFrame(
                {"src_host": pd.Series(dtype="object"),
                 "dst_host": pd.Series(dtype="object"),
                 "n": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"src_host": pd.Series([a for a, _ in cnt], dtype="object"),
             "dst_host": pd.Series([b for _, b in cnt], dtype="object"),
             "n": np.fromiter(cnt.values(), dtype=np.int64, count=len(cnt))}
        )

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["src_host", "dst_host"], as_index=False)["n"].sum()
        return pd.DataFrame(
            {"src_host": out["src_host"], "dst_host": out["dst_host"],
             "n_links": out["n"].astype("int64")}
        )

    return keyed_exchange(
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True),
        ["src_host", "dst_host"], reduce_pairs, n=32,
    )
