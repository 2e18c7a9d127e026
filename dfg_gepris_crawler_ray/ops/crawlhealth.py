"""Crawl-hygiene operators: URL-template explosion (crawler-trap
detection) and mirror-host detection by content-fingerprint overlap.

Both are corpus-health checks a production crawl runs continuously:

- ``url_template_stats`` flags URL *templates* (the URL with every
  digit run collapsed) whose distinct-URL cardinality explodes — the
  classic crawler-trap signature (calendar pages, session ids,
  faceted-search grids).  The reference's fixed ``/gepris/{ctx}/{id}``
  key algebra (gepris_helper.py:86-106) is exactly such a template; at
  open-web scale the same census is what tells the frontier which
  templates to rate-limit or cut off.
- ``mirror_host_pairs`` finds host pairs serving largely the same
  content — Bharat & Broder's mirror-detection shape (WWW 1999):
  fingerprint each page, key the exchange by fingerprint, count
  per-host-pair overlap, score resemblance |A∩B| / |A∪B|.  A crawler
  uses it to collapse mirrors before they double the fetch budget.

Both ops are exact (DuckDB-oracle-checked): the per-fingerprint host
fan-out is capped symmetrically in op and oracle (a fingerprint on more
hosts than ``max_hosts_per_fp`` is boilerplate, not mirroring — and the
cap is also what bounds the pair blow-up at 100 TB).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_TEMPLATE_PATTERN = r"[0-9]+"
_TEMPLATE_TOKEN = "{N}"


def url_template_stats(
    pages_dir: str,
    min_urls: int = 5,
) -> "ray.data.Dataset":
    """(host, template, n_urls) — exact distinct-URL count per
    (host, URL-template), templates below ``min_urls`` pruned.

    ``template`` collapses every digit run to ``{N}`` — the template
    of ``/gepris/projekt/1234?language=de`` is
    ``/gepris/projekt/{N}?language=de``.  At production scale
    ``min_urls`` sits around 10^5 and the survivors are trap suspects;
    the default is test-scale so the gate output is non-trivial.

    Distributed shape (the exact-distinct discipline of
    ``boilerplate.host_distinct_urls``):

    1. scan (url column only): per-batch URL dedup, vectorized
       template + host extraction;
    2. (host, template, url) exchange: every copy of a URL lands in
       exactly one bucket, so per-bucket distinct-URL partial counts
       sum to the exact global distinct count (output rows ≤ buckets ×
       templates-per-bucket, not URLs);
    3. (host, template) exchange: sum partials, prune — a hot template
       (the trap itself!) spreads over every bucket of step 2 instead
       of melting one reduce task.
    """

    from ..kernels.partitioning import keyed_exchange
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url"])

    def partial(batch: pa.Table) -> pa.Table:
        url = pd.Series(pd.unique(batch.column("url").to_pandas()))
        df = pd.DataFrame(
            {
                "host": url.str.split("/").str[2],
                "template": url.str.replace(
                    _TEMPLATE_PATTERN, _TEMPLATE_TOKEN, regex=True
                ),
                "url": url,
            }
        )
        # Arrow block: the (host, template, url) partials are the
        # exchange payload — Arrow string buffers slice zero-copy
        # through the sort-shuffle where pandas object blocks pickle
        return pa.Table.from_pandas(df, preserve_index=False)

    def cell_counts(g: pd.DataFrame) -> pa.Table:
        n = (
            g.drop_duplicates(["host", "template", "url"])
            .groupby(["host", "template"], as_index=False)
            .size()
        )
        n.columns = ["host", "template", "n"]
        return pa.Table.from_pandas(n, preserve_index=False)

    def totals(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["host", "template"], as_index=False)["n"].sum()
        out = out[out["n"] >= min_urls]
        return pd.DataFrame(
            {
                "host": out["host"],
                "template": out["template"],
                "n_urls": out["n"].astype("int64"),
            }
        )

    cells = keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["host", "template", "url"], cell_counts,
    )
    return keyed_exchange(cells, ["host", "template"], totals)


def mirror_host_pairs(
    pages_dir: str,
    fp_chars: int = 40,
    min_shared: int = 1,
    max_hosts_per_fp: int = 64,
) -> "ray.data.Dataset":
    """(host_a, host_b, shared, resemblance) — host pairs sharing
    ``shared`` ≥ ``min_shared`` distinct content fingerprints, scored
    by resemblance = |A∩B| / |A∪B| over each host's fingerprint set
    (Bharat & Broder, WWW 1999 — host-pair similarity from page
    fingerprints; production uses text shingles, the test-scale
    fingerprint is the leading ``fp_chars`` characters so a DuckDB
    oracle can reproduce it exactly).

    Fingerprints seen on more than ``max_hosts_per_fp`` hosts are
    dropped (symmetrically in the oracle): such content is boilerplate
    shared by everyone, not mirroring — and the cap bounds the
    per-fingerprint pair fan-out (≤ cap²/2 rows per fingerprint), so
    no reduce task can melt on a viral page at corpus scale.

    Distributed shape — three keyed exchanges, each over data that
    only *shrinks* downstream:

    1. fingerprint exchange: per-batch distinct (fp, host) rows hashed
       by fp; per bucket: the host-cap filter, per-host fingerprint
       count partials, and the within-bucket host-pair partial counts
       (the self-merge is per-fingerprint and cap-bounded);
    2. host_a exchange: sum pair counts per (host_a, host_b) and
       fingerprint totals per host; each pair row picks up ``n_a``
       from the total row riding the same bucket;
    3. host_b exchange (a total row routes by its own host): same
       trick for ``n_b``; score + prune.

    Output is ≤ (mirror pairs), never corpus-sized; no driver-side
    lookup table at any step (host cardinality is unbounded at
    open-web scale, so totals attach via the exchanges, not a
    broadcast)."""

    from ..kernels.partitioning import keyed_exchange
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        url = batch.column("url").to_pandas()
        txt = batch.column("text").to_pandas()
        keep = txt != ""
        df = pd.DataFrame(
            {
                "fp": txt[keep].str.slice(0, fp_chars),
                "host": url[keep].str.split("/").str[2],
            }
        ).drop_duplicates()
        # Arrow block: zero-copy through the fingerprint exchange
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_kernel(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["fp", "host"])
        nh = g.groupby("fp")["host"].transform("nunique")
        g = g[nh <= max_hosts_per_fp]
        # per-host fingerprint-count partials (host_b='' marks them —
        # '' sorts before any real host so it can never collide with a
        # pair row's key)
        tot = g.groupby("host", as_index=False).size()
        tot.columns = ["host_a", "n"]
        tot["host_b"] = ""
        m = g.merge(g, on="fp")
        m = m[m["host_x"] < m["host_y"]]
        p = m.groupby(["host_x", "host_y"], as_index=False).size()
        p.columns = ["host_a", "host_b", "n"]
        return pd.concat(
            [p[["host_a", "host_b", "n"]], tot[["host_a", "host_b", "n"]]],
            ignore_index=True,
        )

    def reduce_a(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby(["host_a", "host_b"], as_index=False)["n"].sum()
        is_tot = s["host_b"] == ""
        tot = s[is_tot].set_index("host_a")["n"]
        p = s[~is_tot].copy()
        p["na"] = p["host_a"].map(tot).astype("int64")
        trows = s[is_tot].copy()
        trows["na"] = np.int64(-1)
        out = pd.concat([p, trows], ignore_index=True)
        return out.assign(
            host_k=out["host_b"].where(out["host_b"] != "", out["host_a"])
        )

    def reduce_b(g: pd.DataFrame) -> pd.DataFrame:
        is_tot = g["host_b"] == ""
        tot = g[is_tot].set_index("host_a")["n"]
        p = g[~is_tot].copy()
        p["nb"] = p["host_b"].map(tot).astype("int64")
        p = p[p["n"] >= min_shared]
        den = (p["na"] + p["nb"] - p["n"]).astype("float64")
        return pd.DataFrame(
            {
                "host_a": p["host_a"],
                "host_b": p["host_b"],
                "shared": p["n"].astype("int64"),
                "resemblance": (p["n"].astype("float64") / den).round(9),
            }
        )

    fp = keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "fp", bucket_kernel,
    )
    return keyed_exchange(
        keyed_exchange(fp, "host_a", reduce_a), "host_k", reduce_b
    )


def cdx_index(pages_dir: str) -> "ray.data.Dataset":
    """(position, surt, warc_ts_us, url) — a Wayback-style CDX index
    over the page corpus: one row per capture, globally ordered by
    (SURT key, capture time, url) with ``position`` the global row
    number — the binary-searchable layout a CDX server serves lookups
    from (IIPC CDX/SURT conventions; pywb/OpenWayback publish the
    format).  SURT ("Sort-friendly URI Reordering Transform") reverses
    the host labels so every capture of a registered domain — across
    subdomains — is one contiguous key range:
    ``https://sub.example.org/p?q=1`` → ``org,example,sub)/p?q=1``
    (scheme dropped, key lowercased).

    Scale shape: ONE column-pruned scan (url, warc_ts only — html
    never leaves the files) computes SURT vectorized; ONE global
    ``Dataset.sort`` — the index IS the sort, there is no cheaper
    shape; positions come from the scan-then-offset pattern (per-block
    (first-key, n_rows) partials, driver reads ≤ block-count rows,
    never captures). The sorted output is what you'd
    ``write_parquet`` per key-range for resumable index shards."""
    import ray

    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "warc_ts"])

    def surt_rows(batch: pa.Table) -> pd.DataFrame:
        url = batch.column("url").to_pandas()
        ts = batch.column("warc_ts").cast(pa.int64()).to_pandas()
        host = url.str.split("/").str[2]
        # path+query = the URL with scheme+authority stripped
        # (vectorized; equivalent to url[8 + len(host):] for https URLs)
        rest = url.str.replace(r"^https://[^/]*", "", regex=True)
        surt = (
            host.str.split(".").map(lambda p: ",".join(reversed(p)))
            + ")" + rest
        ).str.lower()
        return pd.DataFrame(
            {"surt": surt, "warc_ts_us": ts.astype("int64"),
             "url": url.astype(str)}
        )

    idx = (
        ds.map_batches(surt_rows, batch_format="pyarrow",
                       zero_copy_batch=True)
        .sort(["surt", "warc_ts_us", "url"])
        .materialize()
    )

    empty = pd.DataFrame(
        {"first": pd.Series(dtype="object"), "n": pd.Series(dtype="int64")}
    )
    parts = (
        idx.map_batches(
            lambda df: pd.DataFrame(
                {"first": [df["surt"].iloc[0] + "\x00"
                           + str(int(df["warc_ts_us"].iloc[0])) + "\x00"
                           + df["url"].iloc[0]],
                 "n": [len(df)]}
            ) if len(df) else empty.copy(),
            batch_format="pandas", batch_size=None,
        )
        .to_pandas()  # ≤ block-count rows
        .sort_values("first")
    )
    starts = parts["n"].cumsum().shift(fill_value=0)
    offs = dict(zip(parts["first"], starts.astype(int)))
    off_ref = ray.put(offs)

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {"position": pd.Series(dtype="int64"),
                 "surt": pd.Series(dtype="object"),
                 "warc_ts_us": pd.Series(dtype="int64"),
                 "url": pd.Series(dtype="object")}
            )
        key = (df["surt"].iloc[0] + "\x00"
               + str(int(df["warc_ts_us"].iloc[0])) + "\x00"
               + df["url"].iloc[0])
        start = ray.get(off_ref)[key]
        out = df.reset_index(drop=True)
        out.insert(
            0, "position",
            start + 1 + np.arange(len(out), dtype=np.int64),
        )
        return out

    return idx.map_batches(assign, batch_format="pandas", batch_size=None)


def warc_revisits(pages_dir: str) -> "ray.data.Dataset":
    """Per-CAPTURE WARC revisit records (WARC 1.1 §6.7.2 /
    `revisit` record type; the IIPC archive-dedup convention the CDX
    index serves): a capture whose payload digest equals the most
    recent PRIOR capture of the SAME url is stored as a lightweight
    revisit pointer instead of a second payload copy. Reference
    analogy: the HTTP-cache refresh policy (``cache_control.py``) —
    a refreshed copy that did not change should cost nothing
    downstream.

    Returns one row per capture ``(url, warc_ts_us, revisit)`` with
    ``revisit ∈ {0,1}`` int64 — the first capture of a url is never a
    revisit; a later capture is iff its digest equals the immediately
    preceding capture's.

    Scale shape: ONE column-pruned scan digests the payload (md5 →
    64-bit; html never leaves the scan task) and ONE url-keyed
    exchange (hash buckets, vectorized shift-compare per group). The
    exchange carries ~24-byte fingerprint rows, never payloads; no
    driver-side state. The oracle reconstructs capture rows and the
    revisit bit from the generator inventory (equal payload ⇔ the
    refresh copy is the non-changing kind), so the op's actual
    digests are checked end-to-end."""
    import hashlib

    from ..kernels.partitioning import keyed_exchange

    ds = ray.data.read_parquet(pages_dir, columns=["url", "warc_ts", "html"])

    def digest_rows(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        ts = batch.column("warc_ts").cast(pa.int64())
        h64 = np.fromiter(
            (int.from_bytes(hashlib.md5(h).digest()[:8], "big", signed=True)
             for h in batch.column("html").to_pylist()),
            dtype=np.int64, count=len(batch),
        )
        return pa.table({"url": urls, "warc_ts_us": ts,
                         "h64": pa.array(h64)})

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "warc_ts_us", "h64"], kind="stable")
        same_url = g["url"].shift() == g["url"]
        rv = (same_url & (g["h64"].shift() == g["h64"])).astype("int64")
        return pd.DataFrame(
            {"url": g["url"].astype(str),
             "warc_ts_us": g["warc_ts_us"].astype("int64"),
             "revisit": rv.to_numpy()}
        )

    return keyed_exchange(
        ds.map_batches(digest_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        "url", mark,
    )


def param_hygiene(pages_dir: str) -> "ray.data.Dataset":
    """(host, param, n_captures, n_urls, n_vals, n_stripped,
    n_digests, content_invariant) — per (host, query-parameter) URL
    hygiene census: the statistics a production canonicalizer uses to
    decide which parameters to STRIP from frontier URLs (session ids,
    tracking tags, params that never change the served content).
    Nutch/Heritrix ship hand-maintained strip lists; this derives the
    evidence from the corpus itself. Reference analogy: the fixed
    ``?language=`` handling in the URL key algebra
    (gepris_helper.py:86-106) is a hand-coded instance of exactly this
    decision.

    Per (host, param) over every capture whose URL carries ``param``:

    - ``n_captures``: total captures of the distinct URLs carrying
      the param (a repeated param name in one URL counts once);
    - ``n_urls``: distinct URLs;
    - ``n_vals``: distinct parameter values;
    - ``n_stripped``: distinct URLs after removing the parameter
      (remaining params keep their order; a bare ``?`` is dropped);
    - ``n_digests``: distinct canonical content digests across those
      URLs (canonical digest of a URL = digest of its earliest
      capture's extracted text, ties to the smallest digest);
    - ``content_invariant``: 1 iff EVERY stripped-URL group serves
      exactly one distinct canonical digest — i.e. the parameter
      value never changes the extracted content, so stripping it is
      safe (the de/en twins of this corpus carry identical extracted
      text, so ``language`` is invariant here by design — the
      html-level variance is the CDX/revisit layer's concern).

    Distributed shape — three keyed exchanges, none corpus-sized
    downstream of the first:

    1. url exchange: text digested in the scan (text never leaves the
       scan task), captures collapse to one row per URL (canonical
       digest + capture count) in url-hash buckets;
    2. mixed key exchange: URL rows explode row-locally into one row
       per param occurrence, routed THREE ways in one exchange keyed
       by (kind, host, param, skey) — stripped-group rows by
       (host,param,stripped), value rows by (host,param,value), digest
       rows by (host,param,digest). Each bucket reduces to per-(host,
       param) PARTIALS (sums / group counts / AND of group
       invariance / distinct-value and distinct-digest counts —
       additive across buckets because each distinct member lands in
       exactly one bucket);
    3. final exchange: ≤ 3 × 64 partial rows per key
       sum/AND into the verdict row. A hot parameter (``language`` on
       a 10^9-page host) spreads its distinct-member counting over
       the bucket space instead of melting one reduce task; only the
       per-stripped-group rows share a bucket, and those groups are
       bounded by the variants of ONE base URL.
    """
    import hashlib

    from ..kernels.partitioning import keyed_exchange
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "warc_ts", "text"])

    def digest_scan(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        ts = batch.column("warc_ts").cast(pa.int64())
        d64 = np.fromiter(
            (int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big",
                            signed=True)
             for t in batch.column("text").to_pylist()),
            dtype=np.int64, count=len(batch),
        )
        return pa.table({"url": urls, "ts_us": ts, "d64": pa.array(d64)})

    def url_reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "ts_us", "d64"], kind="stable")
        first = g.drop_duplicates("url", keep="first")
        n_caps = g.groupby("url", sort=False).size()
        return pd.DataFrame(
            {"url": first["url"].astype(str),
             "d64": first["d64"].astype("int64"),
             "n_caps": first["url"].map(n_caps).astype("int64")}
        )

    def explode_params(df: pd.DataFrame) -> pd.DataFrame:
        part = df["url"].str.partition("?")
        has = part[2] != ""
        if not has.any():
            return pd.DataFrame(
                {"kind": pd.Series(dtype=str), "host": pd.Series(dtype=str),
                 "param": pd.Series(dtype=str), "skey": pd.Series(dtype=str),
                 "d64": pd.Series(dtype="int64"),
                 "n_caps": pd.Series(dtype="int64")}
            )
        base = part[0][has]
        host = base.str.split("/").str[2]
        kvs = part[2][has].str.split("&")
        d64 = df["d64"][has]
        n_caps = df["n_caps"][has]
        rows: list[tuple] = []
        for b, h, kl, d, nc in zip(base, host, kvs, d64, n_caps):
            # group occurrences by param NAME first: a URL with a
            # repeated param (?a=1&a=2) must contribute ONE 's' row
            # per (url, param) — n_urls/n_captures count distinct
            # URLs, not occurrences — while every occurrence's value
            # still feeds the distinct-value census ('v' rows)
            by_name: dict[str, list[str]] = {}
            for kv in kl:
                p, _, v = kv.partition("=")
                by_name.setdefault(p, []).append(v)
            for p, vals in by_name.items():
                rest = "&".join(x for x in kl if x.partition("=")[0] != p)
                stripped = b + ("?" + rest if rest else "")
                rows.append(("s", h, p, stripped, d, nc))
                rows.append(("d", h, p, str(d), d, nc))
                for v in vals:
                    rows.append(("v", h, p, v, d, nc))
        out = pd.DataFrame(
            rows, columns=["kind", "host", "param", "skey", "d64", "n_caps"]
        )
        # value/digest rows only carry distinctness: dedup per batch
        # so the exchange never re-ships a hot value
        dup = (out["kind"] != "s") & out.duplicated(
            ["kind", "host", "param", "skey"]
        )
        out = out[~dup]
        return out.astype({"d64": "int64", "n_caps": "int64"})

    def partial_reduce(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        s = g[g["kind"] == "s"]
        if len(s):
            grp = s.groupby(["host", "param", "skey"], sort=False).agg(
                cd=("d64", "nunique"), nu=("skey", "size"),
                nc=("n_caps", "sum"))
            agg = grp.reset_index().groupby(["host", "param"], sort=False)
            outs.append(pd.DataFrame(
                {"n_captures": agg["nc"].sum(),
                 "n_urls": agg["nu"].sum(),
                 "n_stripped": agg["nc"].size(),
                 "inv": (agg["cd"].max() == 1).astype("int64"),
                 "n_vals": 0, "n_digests": 0}).reset_index())
        for kind, col in (("v", "n_vals"), ("d", "n_digests")):
            k = g[g["kind"] == kind]
            if len(k):
                n = (k.drop_duplicates(["host", "param", "skey"])
                     .groupby(["host", "param"], sort=False).size())
                f = pd.DataFrame({col: n}).reset_index()
                for c in ("n_captures", "n_urls", "n_stripped"):
                    f[c] = 0
                f["inv"] = 1
                if col == "n_vals":
                    f["n_digests"] = 0
                else:
                    f["n_vals"] = 0
                outs.append(f)
        cols = ["host", "param", "n_captures", "n_urls", "n_stripped",
                "inv", "n_vals", "n_digests"]
        if not outs:
            return pd.DataFrame(columns=cols).astype(
                {c: "int64" for c in cols[2:]})
        return pd.concat([o[cols] for o in outs], ignore_index=True)

    def final_reduce(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["host", "param"], sort=False).agg(
            n_captures=("n_captures", "sum"), n_urls=("n_urls", "sum"),
            n_vals=("n_vals", "sum"), n_stripped=("n_stripped", "sum"),
            n_digests=("n_digests", "sum"),
            content_invariant=("inv", "min")).reset_index()
        return agg.astype({c: "int64" for c in agg.columns[2:]})

    urls = keyed_exchange(
        ds.map_batches(digest_scan, batch_format="pyarrow",
                       zero_copy_batch=True),
        "url", url_reduce,
    )
    partials = keyed_exchange(
        urls.map_batches(explode_params, batch_format="pandas"),
        ["kind", "host", "param", "skey"], partial_reduce,
    )
    return keyed_exchange(partials, ["host", "param"], final_reduce, n=8)


def revisit_rate(pages_dir: str) -> "ray.data.Dataset":
    """(url, n_obs, n_changes, span_us, rate_ppm_day) — per-URL
    change-rate estimate from the capture history: the X/T frequency
    estimator of Cho & Garcia-Molina (TOIT 2003, "Estimating
    frequency of change") that an incremental crawler feeds into its
    revisit policy (``recrawl_schedule`` consumes the one-fetch
    ``changed`` bit; this is the full-history generalization the
    same policy upgrades to once ≥2 captures exist).

    - ``n_obs``: captures of the url;
    - ``n_changes``: captures whose payload digest differs from the
      immediately preceding capture's (the complement of
      ``warc_revisits``);
    - ``span_us``: last-capture − first-capture timestamp;
    - ``rate_ppm_day``: changes per day in parts-per-million,
      integer-exact — ``n_changes · 86 400e6 · 10^6 // span_us``
      (0 when the span is empty), so op and oracle hash-match with
      no float division.

    Shape: identical to ``warc_revisits`` — ONE digest scan (html
    never leaves the task) + ONE url-keyed exchange whose group task
    computes the shift-compare, counts and the rate vectorized. At
    10^10 URLs the exchange carries ~24-byte fingerprint rows keyed
    by url hash; no driver state."""
    import hashlib

    from ..kernels.partitioning import keyed_exchange

    ds = ray.data.read_parquet(pages_dir, columns=["url", "warc_ts", "html"])

    def digest_rows(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        ts = batch.column("warc_ts").cast(pa.int64())
        h64 = np.fromiter(
            (int.from_bytes(hashlib.md5(h).digest()[:8], "big", signed=True)
             for h in batch.column("html").to_pylist()),
            dtype=np.int64, count=len(batch),
        )
        return pa.table({"url": urls, "ts_us": ts, "h64": pa.array(h64)})

    DAY_US = 86_400_000_000

    def rate(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "ts_us", "h64"], kind="stable")
        same_url = g["url"].shift() == g["url"]
        chg = (same_url & (g["h64"].shift() != g["h64"])).astype("int64")
        agg = pd.DataFrame(
            {"url": g["url"], "chg": chg, "ts_us": g["ts_us"]}
        ).groupby("url", sort=False).agg(
            n_obs=("chg", "size"), n_changes=("chg", "sum"),
            first_ts=("ts_us", "min"), last_ts=("ts_us", "max"),
        ).reset_index()
        span = (agg["last_ts"] - agg["first_ts"]).astype("int64")
        nch = agg["n_changes"].astype("int64")
        # n_changes * 8.64e16 overflows int64 silently once
        # n_changes >= 107 (long capture histories), so the vectorized
        # product only covers rows where it provably fits; the rare
        # overflow rows recompute with arbitrary-precision Python ints
        # and SATURATE at int64 max when even the true rate exceeds it
        # (>=107 changes inside ~1 us — physically meaningless; exact
        # and oracle-identical everywhere below that ceiling)
        C = DAY_US * 1_000_000
        spn = span.to_numpy()
        nchv = nch.to_numpy()
        rate = np.zeros(len(spn), dtype=np.int64)
        pos = spn > 0
        fits = nchv <= (2**63 - 1) // C
        m = pos & fits
        rate[m] = nchv[m] * C // spn[m]
        big = pos & ~fits
        if big.any():
            I64MAX = 2**63 - 1
            # saturate at int64 max: a true rate beyond it (>=107
            # changes inside ~1 µs) is physically meaningless and must
            # not crash the whole exchange with an OverflowError
            rate[big] = np.fromiter(
                (min(int(n) * C // int(s), I64MAX)
                 for n, s in zip(nchv[big], spn[big])),
                dtype=np.int64, count=int(big.sum()),
            )
        return pd.DataFrame(
            {"url": agg["url"].astype(str),
             "n_obs": agg["n_obs"].astype("int64"),
             "n_changes": nch,
             "span_us": span,
             "rate_ppm_day": rate.astype("int64")}
        )

    return keyed_exchange(
        ds.map_batches(digest_rows, batch_format="pyarrow",
                       zero_copy_batch=True),
        "url", rate,
    )


ROBOTS_RULES = ("/gepris/projekt", "/gepris/OCTOPUS")


def robots_policy_bits(host: str) -> tuple[bool, bool]:
    """Deterministic synthetic robots policy for a host — the fixture
    the audit op and its SQL oracle share: rule r of ``ROBOTS_RULES``
    is Disallowed iff hex digit r of md5(host) is < '8' (digit 0 for
    the projekt prefix, digit 1 for the OCTOPUS prefix). Mirrors the
    shape of real robots.txt data (path-prefix Disallow lines, the
    rule form urllib.robotparser reduces to for '*' agents)."""
    import hashlib

    hx = hashlib.md5(host.encode()).hexdigest()
    return (int(hx[0], 16) < 8, int(hx[1], 16) < 8)


def robots_audit(pages_dir: str) -> "ray.data.Dataset":
    """(host, n_urls, n_captures, n_disallowed_urls,
    n_disallowed_captures, crawlable_share_ppm) — the PRE-FLIGHT
    robots-compliance census a crawl cycle runs before spending
    budget: for each host, how much of the known URL inventory (and
    of the historical capture volume) a path-prefix Disallow set
    would cut, and the integer-exact crawlable share
    (``allowed_urls × 10^6 // n_urls``). The run-time twin of
    ``PolitenessShard.allowed`` (reference ROBOTSTXT_OBEY=True,
    settings.py:66) — that gate asks per fetch, this op asks the
    fleet-planning question distributed over the whole inventory.

    The robots ruleset here is the deterministic synthetic policy of
    :func:`robots_policy_bits` (per-host path-prefix Disallows derived
    from md5(host)), so op and SQL oracle are value-comparable; a
    production run swaps in a fetched per-host rule table broadcast
    the same way the politeness robots cache is.

    Shape: identical to ``warc_revisits`` — ONE url-hash exchange
    collapses captures to one row per URL (the scan ships only the
    url string), then per-batch per-host partial sums (additive:
    each URL lives in exactly one url bucket) meet in ONE host-keyed
    exchange of tiny count rows. A 10^9-URL host is fine: its
    partials are pre-summed per batch, the final group task adds a
    handful of rows."""
    from ..kernels.partitioning import keyed_exchange
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url"])

    def per_url(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("url", sort=False).size()
        urls = c.index.to_numpy()
        hosts = np.array([u.split("/")[2] for u in urls])
        # ONE policy-evaluation kernel (robots_allowed_mask) shared
        # with the effective-frontier filter — the census is its
        # exact negation, so the two can never silently diverge
        dis = ~robots_allowed_mask(
            pd.DataFrame({"url": urls, "host": hosts})
        )
        return pd.DataFrame(
            {"host": hosts, "n_caps": c.to_numpy().astype("int64"),
             "dis": dis}
        )

    def host_partial(df: pd.DataFrame) -> pd.DataFrame:
        d = df.assign(
            du=df["dis"].astype("int64"),
            dc=(df["dis"].astype("int64") * df["n_caps"]),
        )
        return d.groupby("host", as_index=False).agg(
            n_urls=("dis", "size"), n_captures=("n_caps", "sum"),
            n_disallowed_urls=("du", "sum"),
            n_disallowed_captures=("dc", "sum"),
        )

    def host_final(g: pd.DataFrame) -> pd.DataFrame:
        a = g.groupby("host", as_index=False)[
            ["n_urls", "n_captures", "n_disallowed_urls",
             "n_disallowed_captures"]
        ].sum()
        allowed = a["n_urls"] - a["n_disallowed_urls"]
        a["crawlable_share_ppm"] = (
            allowed * 1_000_000 // a["n_urls"]
        ).astype("int64")
        return a.astype({c: "int64" for c in a.columns[1:]})

    per_host = keyed_exchange(ds, "url", per_url).map_batches(
        host_partial, batch_format="pandas"
    )
    return keyed_exchange(per_host, "host", host_final, n=16)


def host_novelty(pages_dir: str) -> "ray.data.Dataset":
    """(host, n_captures, n_distinct_texts, novelty_ppm) — per-host
    fetch-budget YIELD: of everything fetched from a host, how much
    was novel content? ``n_distinct_texts`` counts distinct CANONICAL
    content digests (a URL's canonical digest = its earliest
    capture's extracted text, ties to the smallest digest — the
    ``param_hygiene`` convention), ``n_captures`` counts every fetch,
    and ``novelty_ppm = n_distinct_texts × 10^6 // n_captures``
    (integer-exact). THE crawl-efficiency metric a scheduler feeds
    back into ``host_budget_allocation`` — a host whose fetches are
    95% duplicate content (calendars, mirrors, session-id spam)
    should not keep its budget share; the mirror/trap censuses above
    DIAGNOSE the causes this metric prices.

    Distributed shape — three keyed exchanges, nothing corpus-sized
    past the first:

    1. digest scan (text never leaves the task) → url-hash exchange
       collapses captures to one (url → canonical digest, n_caps)
       row;
    2. per-batch partials: additive per-host capture sums PLUS
       (host, digest) dedup rows, keyed by the full (host, kind,
       digest) key — the exact-distinct discipline of
       ``boilerplate.host_distinct_urls``: the 70%-hot host spreads
       its distinct space over every bucket, no double count possible
       because each (host, digest) lands in exactly one bucket;
    3. ONE host-keyed exchange sums the tiny count rows into the
       verdict row. Output is host-cardinality."""
    import hashlib

    from ..kernels.partitioning import keyed_exchange
    from ..sources.pages import read_pages

    ds = read_pages(pages_dir, columns=["url", "warc_ts", "text"])

    def digest_scan(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        ts = batch.column("warc_ts").cast(pa.int64())
        d64 = np.fromiter(
            (int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big",
                            signed=True)
             for t in batch.column("text").to_pylist()),
            dtype=np.int64, count=len(batch),
        )
        return pa.table({"url": urls, "ts_us": ts, "d64": pa.array(d64)})

    def url_reduce(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["url", "ts_us", "d64"], kind="stable")
        first = g.drop_duplicates("url", keep="first")
        n_caps = g.groupby("url", sort=False).size()
        return pd.DataFrame(
            {"host": first["url"].str.split("/").str[2],
             "d64": first["d64"].astype("int64"),
             "n_caps": first["url"].map(n_caps).astype("int64")}
        )

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        caps = df.groupby("host", as_index=False)["n_caps"].sum()
        caps = caps.rename(columns={"n_caps": "n"})
        caps["kind"] = "c"
        caps["d64"] = np.int64(0)
        dd = df[["host", "d64"]].drop_duplicates()
        dd = dd.assign(kind="d", n=np.int64(0))
        return pd.concat(
            [caps[["host", "kind", "d64", "n"]],
             dd[["host", "kind", "d64", "n"]]],
            ignore_index=True,
        )

    def cell_reduce(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        c = g[g["kind"] == "c"]
        if len(c):
            sm = c.groupby("host", as_index=False)["n"].sum()
            sm["kind"] = "c"
            outs.append(sm)
        d = g[g["kind"] == "d"]
        if len(d):
            n = (d.drop_duplicates(["host", "d64"])
                 .groupby("host", as_index=False).size()
                 .rename(columns={"size": "n"}))
            n["kind"] = "d"
            outs.append(n)
        if not outs:
            return pd.DataFrame({"host": pd.Series(dtype=str),
                                 "n": pd.Series(dtype="int64"),
                                 "kind": pd.Series(dtype=str)})
        return pd.concat(outs, ignore_index=True)

    def host_reduce(g: pd.DataFrame) -> pd.DataFrame:
        piv = g.groupby(["host", "kind"], as_index=False)["n"].sum()
        caps = piv[piv["kind"] == "c"].set_index("host")["n"]
        dis = piv[piv["kind"] == "d"].set_index("host")["n"]
        hosts = sorted(set(caps.index) | set(dis.index))
        nc = np.array([int(caps.get(h, 0)) for h in hosts], dtype=np.int64)
        nd = np.array([int(dis.get(h, 0)) for h in hosts], dtype=np.int64)
        return pd.DataFrame(
            {"host": pd.Series(hosts, dtype=str),
             "n_captures": nc, "n_distinct_texts": nd,
             "novelty_ppm": nd * 1_000_000 // np.maximum(nc, 1)}
        )

    urls = keyed_exchange(
        ds.map_batches(digest_scan, batch_format="pyarrow",
                       zero_copy_batch=True),
        "url", url_reduce,
    )
    cells = keyed_exchange(
        urls.map_batches(partials, batch_format="pandas"),
        ["host", "kind", "d64"], cell_reduce,
    )
    return keyed_exchange(cells, "host", host_reduce, n=16)


def robots_allowed_mask(df: pd.DataFrame) -> np.ndarray:
    """Boolean keep-mask over a frame with ``url`` and ``host``
    columns: True where the synthetic robots policy
    (:func:`robots_policy_bits`) ALLOWS the URL. Row-local: the policy
    bits are computed once per distinct host in the batch, and the
    path-prefix tests (path = the URL after ``https://`` + host) run
    as one vectorized ``startswith`` per rule — the pluggable
    ``url_filter`` the effective-frontier composition passes into
    ``recrawl.fetch_waves``."""
    codes, hosts = pd.factorize(df["host"])
    bits = np.array(
        [robots_policy_bits(h) for h in hosts], dtype=bool
    ).reshape(-1, 2)[codes]
    url = np.asarray(df["url"], dtype=str)
    start = 8 + np.char.str_len(np.asarray(df["host"], dtype=str))
    blocked = np.zeros(len(df), dtype=bool)
    for r, rule in enumerate(ROBOTS_RULES):
        blocked |= bits[:, r] & np.char.startswith(url, rule, start)
    return ~blocked
