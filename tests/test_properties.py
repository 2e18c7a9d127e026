"""Property-based tests (hypothesis) for the load-bearing pure kernels.

The reference has no randomized tests (SURVEY.md §5); these harden the
invariants the byte-identical contract rests on beyond the goldens.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

texts = st.text(max_size=200)
tokens = st.lists(st.text(alphabet=st.characters(blacklist_characters=" "), min_size=1, max_size=8), max_size=30)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_clean_string_idempotent(s):
    from dfg_gepris_crawler_ray.kernels.strings import clean_string

    once = clean_string(s)
    assert clean_string(once) == once
    # output never carries leading/trailing/double spaces or unprintables
    if once:
        assert once == once.strip()
        assert "  " not in once
        assert all(c.isprintable() for c in once)


@given(st.lists(st.one_of(st.none(), st.integers(), texts), max_size=20))
@settings(max_examples=200, deadline=None)
def test_mapcompose_none_drop_and_flatten(values):
    from dfg_gepris_crawler_ray.kernels.loadalg import MapCompose

    out = MapCompose(lambda v: None if v is None else v)(values)
    assert out == [v for v in values if v is not None]
    # a function returning a list flattens into the stream
    doubled = MapCompose(lambda v: [v, v])(values)
    assert len(doubled) == 2 * len(values)


@given(st.lists(st.one_of(st.none(), st.just(""), st.integers(), texts), max_size=20))
@settings(max_examples=200, deadline=None)
def test_take_first_skips_none_and_empty(values):
    from dfg_gepris_crawler_ray.kernels.loadalg import TakeFirst

    got = TakeFirst()(values)
    wanted = next((v for v in values if v is not None and v != ""), None)
    assert got == wanted


@given(tokens, tokens)
@settings(max_examples=100, deadline=None)
def test_ngram_jaccard_bounds_and_symmetry(a, b):
    from dfg_gepris_crawler_ray.ops.dedup import word_ngrams

    ta, tb = " ".join(a), " ".join(b)
    ga, gb = word_ngrams(ta, 3), word_ngrams(tb, 3)
    inter = len(ga & gb)
    union = len(ga) + len(gb) - inter
    if union:
        j = inter / union
        assert 0.0 <= j <= 1.0
    assert word_ngrams(ta, 3) == ga  # deterministic
    # symmetry of the pair metric
    assert len(gb & ga) == inter


@given(st.lists(st.integers(min_value=0, max_value=2**62), min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_simhash_hamming_triangle(hashes):
    from dfg_gepris_crawler_ray.ops.dedup import simhash64

    # simhash of identical text is identical; of disjoint-token texts is
    # deterministic (no process salt)
    t = " ".join(str(h) for h in hashes)
    assert simhash64(t) == simhash64(t)


@given(texts)
@settings(max_examples=200, deadline=None)
def test_html_roundtrip_never_crashes(s):
    """The permissive parser must accept arbitrary junk without raising
    (real-web tag soup)."""
    from dfg_gepris_crawler_ray.kernels.htmlmini import parse_html

    root = parse_html("<html><body>" + s + "</body></html>")
    # traversal APIs behave on whatever came out
    list(root.iter_elems())
    list(root.iter_texts())


@given(st.text(alphabet="abc<>/= '\"!-", max_size=120))
@settings(max_examples=200, deadline=None)
def test_html_parser_tag_soup(s):
    from dfg_gepris_crawler_ray.kernels.htmlmini import parse_html

    root = parse_html(s or "<x/>")
    list(root.iter_elems())


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["projekt", "person", "institution"]),
    st.sampled_from(["de", "en"]),
    st.sampled_from(["gepris.example.org", "host3.example.net", "a-b.c.example"]),
)
@settings(max_examples=200, deadline=None)
def test_url_roundtrip(entity_id, context, language, host):
    """M8 frontier key function: build → parse is the identity on
    (kind, context, id, language, host)."""
    from dfg_gepris_crawler_ray.kernels import urls as U

    info = U.parse_page_url(U.details_page_url(entity_id, context, language, host))
    assert info["kind"] == "details"
    assert info["context"] == context
    assert info["id"] == entity_id
    assert info["language"] == language
    assert info["host"] == host
    if context == "projekt":
        rinfo = U.parse_page_url(U.result_page_url(entity_id, context, language, host))
        assert rinfo["kind"] == "result" and rinfo["id"] == entity_id


@given(st.text(max_size=80))
@settings(max_examples=200, deadline=None)
def test_url_parser_never_crashes(junk):
    from dfg_gepris_crawler_ray.kernels import urls as U

    info = U.parse_page_url("https://example.org/" + junk.replace("\n", ""))
    assert "kind" in info and "id" in info


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 5)), max_size=30))
@settings(max_examples=100, deadline=None)
def test_host_budget_invariants(rows):
    import pandas as pd

    from dfg_gepris_crawler_ray.frontier.politeness import apply_host_budget

    frontier = pd.DataFrame(
        {"host": [h for h, _ in rows], "id": range(len(rows))}
    )
    out = apply_host_budget(frontier, max_per_host=2)
    # cap respected per host
    assert (out.groupby("host").size() <= 2).all() if len(out) else True
    # relative order preserved (ids strictly increasing)
    assert list(out["id"]) == sorted(out["id"])
    # fetch_seq is dense 0..n-1
    assert list(out["fetch_seq"]) == list(range(len(out)))


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_mg_compress_sandwich_bound(batches, m):
    """Misra-Gries per-batch compress + exact merge keeps every
    reported token within [est, est + sum(deducts)] of its true count,
    and never loses a token whose true count exceeds the total
    deduction — on arbitrary random streams, any batching."""
    import numpy as np

    from dfg_gepris_crawler_ray.ops.textstats import mg_compress

    true: dict[str, int] = {}
    est: dict[str, int] = {}
    total_d = 0
    for batch in batches:
        toks = [f"t{v}" for v in batch]
        uniq, counts = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        for t, c in zip(uniq, counts):
            true[t] = true.get(t, 0) + int(c)
        u2, c2, d = mg_compress(uniq, counts, m)
        total_d += d
        assert len(u2) <= m
        for t, c in zip(u2, c2):
            assert c > 0
            est[t] = est.get(t, 0) + int(c)
    for t, e in est.items():
        assert e <= true[t] <= e + total_d, (t, e, true[t], total_d)
    for t, c in true.items():
        if c > total_d:
            assert t in est, (t, c, total_d)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 6),            # user
            st.integers(0, 100_000),      # seconds offset
            st.sampled_from(["view", "click", "purchase", "other"]),
        ),
        min_size=0,
        max_size=120,
    ),
    st.sampled_from([1, 4, 24]),
)
@settings(max_examples=60, deadline=None)
def test_funnel_bucket_kernel_matches_reference_semantics(rows, within_hours):
    """The vectorized funnel progression equals a per-user reference
    walk (first step-1 ts; first step-2 strictly after it within the
    window; first step-3 likewise) on arbitrary event soups — including
    duplicate timestamps, missing steps and bucket-order permutations."""
    import pandas as pd

    steps = ["view", "click", "purchase"]
    base = pd.Timestamp("2024-01-01")
    g = pd.DataFrame(
        {
            "user_id": pd.Series([u for u, _, _ in rows], dtype="int64"),
            "ts": pd.Series(
                [base + pd.Timedelta(seconds=s) for _, s, _ in rows],
                dtype="datetime64[ns]",
            ),
            "event_type": pd.Series([t for _, _, t in rows], dtype="object"),
        }
    )

    from dfg_gepris_crawler_ray.ops.relational import funnel_bucket

    # the per-bucket reduce funnel_steps passes to its exchange
    out = funnel_bucket(g, steps, within_hours)
    assert out["step_no"].tolist() == [1, 2, 3] and out["step"].tolist() == steps
    got = out["n_users"].tolist()

    # reference walk, one user at a time
    want = [0, 0, 0]
    for u in sorted(set(g["user_id"])):
        h = g[g["user_id"] == u].sort_values("ts", kind="mergesort")
        prev = None
        for i, s in enumerate(steps):
            cand = h[h["event_type"] == s]
            if prev is not None:
                cand = cand[
                    (cand["ts"] > prev)
                    & (cand["ts"] <= prev + pd.Timedelta(hours=within_hours))
                ]
            if not len(cand):
                break
            prev = cand["ts"].min()
            want[i] += 1
    assert got == want


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 40)),  # (user, day)
        min_size=0,
        max_size=150,
    )
)
@settings(max_examples=60, deadline=None)
def test_retention_bucket_kernel_matches_reference(rows):
    """The vectorized retention-matrix kernel equals a per-user
    reference walk on arbitrary (user, activity-day) multisets."""
    import pandas as pd

    df = pd.DataFrame(
        {
            "user_id": pd.Series([u for u, _ in rows], dtype="int64"),
            "day": pd.Series([d for _, d in rows], dtype="int64"),
        }
    )

    from dfg_gepris_crawler_ray.ops.relational import retention_bucket

    # the per-bucket reduce retention_cohorts passes to its exchange
    out = retention_bucket(df)
    got = {
        ((c - pd.Timestamp(0)).days, int(o)): int(n)
        for c, o, n in out[["cohort_day", "day_offset", "n_users"]].itertuples(index=False)
    }

    # reference walk
    want: dict[tuple[int, int], int] = {}
    for u in sorted(set(r[0] for r in rows)):
        days = sorted({d for uu, d in rows if uu == u})
        c = days[0]
        for d in days:
            want[(c, d - c)] = want.get((c, d - c), 0) + 1
    assert got == want


@given(
    st.lists(
        # (orderkey, suppkey, ship_offset_days)
        st.tuples(st.integers(0, 12), st.integers(0, 5), st.integers(0, 180)),
        min_size=0,
        max_size=120,
    ),
    st.sampled_from([30, 60, 90]),
)
@settings(max_examples=60, deadline=None)
def test_sole_late_supplier_kernel_matches_reference_walk(rows, grace):
    """The vectorized only-late-supplier test (distinct suppliers ≥ 2,
    distinct LATE suppliers == 1) equals a per-order reference walk on
    arbitrary line soups — including single-supplier orders, all-late
    orders, duplicate (order, supplier) lines and boundary ship dates
    (strictly-greater-than contract at exactly +grace days)."""
    import pandas as pd

    from dfg_gepris_crawler_ray.ops.relational import sole_late_bucket

    base = pd.Timestamp("2024-01-01")
    line_rows = pd.DataFrame(
        {
            "l_orderkey": pd.Series([o for o, _, _ in rows], dtype="int64"),
            "l_suppkey": pd.Series([s for _, s, _ in rows], dtype="int64"),
            "l_shipdate": pd.Series(
                [base + pd.Timedelta(days=d) for _, _, d in rows],
                dtype="datetime64[ns]",
            ),
        }
    )
    # one shared order date: offsets carry the signal
    okeys = sorted({o for o, _, _ in rows})
    orders = pd.DataFrame(
        {
            "o_orderkey": pd.Series(okeys, dtype="int64"),
            "o_orderdate": pd.Series([base] * len(okeys), dtype="datetime64[ns]"),
        }
    )

    # the per-bucket reduce sole_late_supplier passes to its exchange
    out = sole_late_bucket({"o": orders, "l": line_rows}, grace)
    got = dict(zip(out["skey"].tolist(), out["cnt"].tolist()))

    # reference walk, one order at a time
    want: dict[int, int] = {}
    for o in sorted(set(r[0] for r in rows)):
        lines = [(s, d) for (ok, s, d) in rows if ok == o]
        supps = set(s for s, _ in lines)
        late_supps = set(s for s, d in lines if d > grace)
        if len(supps) >= 2 and len(late_supps) == 1:
            (s,) = late_supps
            want[s] = want.get(s, 0) + 1
    assert got == want


@given(
    st.lists(
        # (host, changed, ts, url-suffix)
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.booleans(),
            st.integers(0, 9),  # heavy ts ties on purpose
            st.integers(0, 500),
        ),
        min_size=1,
        max_size=120,
        unique_by=lambda r: (r[0], r[3]),  # unique url per host
    ),
    st.sampled_from([1, 3, 7]),
    st.sampled_from([1, 2, 4]),  # ts_buckets — including degenerate 1
)
@settings(max_examples=60, deadline=None)
def test_two_level_rank_kernel_equals_global_sort(rows, quota, nb):
    """The fetch-waves rank composition (exclusive cum-below per
    (host, changed, ts-bucket) cell in order-key order + within-cell
    position) equals the rank of a plain global per-host sort, on
    arbitrary soups with heavy ts ties and any bucket geometry —
    including ts_buckets=1 (everything in one cell)."""
    import numpy as np
    import pandas as pd

    df = pd.DataFrame(
        {
            "host": [h for h, _, _, _ in rows],
            "changed": [c for _, c, _, _ in rows],
            "ts_us": pd.Series([t for _, _, t, _ in rows], dtype="int64"),
            "url": [f"{h}/u{u}" for h, _, _, u in rows],
        }
    )

    # reference: global per-host sort rank
    ref = df.sort_values(
        ["host", "changed", "ts_us", "url"],
        ascending=[True, False, True, True], kind="mergesort",
    ).copy()
    ref["rank"] = ref.groupby("host", sort=False).cumcount()
    ref["wave"] = ref["rank"] // quota + 1
    want = ref.set_index("url")["wave"].to_dict()

    # kernel (mirrors ops/recrawl.py::fetch_waves): bounded histogram →
    # order-key-ordered exclusive cumsum → within-cell position
    tmin, tmax = int(df["ts_us"].min()), int(df["ts_us"].max())
    span = max(tmax - tmin + 1, 1)
    df["tsb"] = ((df["ts_us"] - tmin) * nb // span).astype("int64")
    hist = df.groupby(["host", "changed", "tsb"], as_index=False).size()
    hist = hist.sort_values(
        ["host", "changed", "tsb"], ascending=[True, False, True],
        kind="mergesort",
    )
    cum = hist.groupby("host", sort=False)["size"].cumsum() - hist["size"]
    lookup = {
        (h, bool(c), int(b)): int(v)
        for h, c, b, v in zip(hist["host"], hist["changed"], hist["tsb"], cum)
    }
    g = df.sort_values(
        ["host", "changed", "tsb", "ts_us", "url"],
        ascending=[True, False, True, True, True], kind="mergesort",
    )
    pos = g.groupby(["host", "changed", "tsb"], sort=False).cumcount()
    base = np.array(
        [lookup[(h, bool(c), int(b))] for h, c, b in
         zip(g["host"], g["changed"], g["tsb"])],
        dtype=np.int64,
    )
    got = dict(zip(g["url"], (base + pos.to_numpy()) // quota + 1))
    assert got == want


@given(
    st.lists(st.integers(1, 500), min_size=1, max_size=40),
    st.integers(0, 2000),
)
@settings(max_examples=100, deadline=None)
def test_largest_remainder_kernel_exact_and_ordered(weights, budget):
    """The Hamilton-apportionment kernel (mirrors ops/recrawl.py::
    host_budget_allocation): quotas sum to the budget EXACTLY, every
    quota is floor or floor+1 of its proportional share, and no bonus
    goes to a strictly smaller remainder than any non-bonus (ties by
    host name) — on arbitrary weight vectors and budgets including 0."""
    import pandas as pd

    hosts = [f"h{i:02d}" for i in range(len(weights))]
    total = sum(weights)
    df = pd.DataFrame({"host": hosts, "weight": weights})
    df["fl"] = (budget * df["weight"]) // total
    df["rem"] = (budget * df["weight"]) % total
    leftover = budget - int(df["fl"].sum())
    assert 0 <= leftover < len(weights) or budget == 0
    bonus_hosts = set(
        df.sort_values(["rem", "host"], ascending=[False, True],
                       kind="mergesort").head(max(leftover, 0))["host"]
    )
    df["quota"] = df["fl"] + df["host"].isin(bonus_hosts).astype(int)
    assert int(df["quota"].sum()) == budget
    assert ((df["quota"] - df["fl"]).isin([0, 1])).all()
    bonus = df["host"].isin(bonus_hosts)
    if bonus.any() and (~bonus).any():
        assert df.loc[bonus, "rem"].min() >= df.loc[~bonus, "rem"].max()


@given(
    n_base=st.integers(0, 6),
    n_add=st.integers(0, 6),
    base_vals=st.booleans(),
    add_vals=st.booleans(),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_concat_rows_preserves_values_and_silences_all_na_warning(
    n_base, n_add, base_vals, add_vals, data
):
    """_concat_rows (frontier/state.py) is a drop-in row append: same
    rows/columns as a plain concat, never emits the pandas-3
    empty/all-NA FutureWarning, and when one side's column is all-NA
    the result keeps the VALUED side's dtype (the 'old behavior' the
    warning deprecates) for numeric targets."""
    import warnings

    import numpy as np
    import pandas as pd

    from dfg_gepris_crawler_ray.frontier.state import _concat_rows

    def frame(n, valued):
        if valued:
            num = pd.Series(
                data.draw(st.lists(st.floats(allow_nan=False, width=32,
                                             allow_infinity=False),
                                   min_size=n, max_size=n)),
                dtype="float64",
            )
            txt = pd.Series(["x"] * n, dtype="object")
        else:
            num = pd.Series([None] * n, dtype="object")
            txt = pd.Series([None] * n, dtype="object")
        return pd.DataFrame({"id": pd.Series(range(n), dtype="int64"),
                             "num": num, "txt": txt})

    base = frame(n_base, base_vals)
    add = frame(n_add, add_vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        out = _concat_rows(base, add)
    assert len(out) == n_base + n_add
    assert list(out.columns) == list(base.columns)
    # values survive in order (NaN-aware compare on the numeric col)
    want_num = pd.concat(
        [base["num"].astype("float64"), add["num"].astype("float64")],
        ignore_index=True,
    )
    got_num = out["num"].astype("float64")
    assert ((got_num == want_num) | (got_num.isna() & want_num.isna())).all()
    # an all-NA side must not degrade a valued float64 column
    if len(base) and len(add) and base_vals != add_vals:
        assert str(out["num"].dtype) == "float64"
