"""Typed-column derivations from extracted item rows.

The reference materialises item JSON into typed tables with SQL
functions (``create_personen_from_items`` etc.,
database/init/dfg-gepris.sql:233-339); here the same projections are
``map_batches`` stages over the items Dataset producing Arrow columns —
used by the driver's oracle-checked queries.
"""

from __future__ import annotations

import json

import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def _items(ds: "ray.data.Dataset", context: str) -> "ray.data.Dataset":
    return ds.map_batches(
        lambda b: b.filter(
            pc.and_(pc.equal(b.column("context"), context), pc.equal(b.column("status"), "success"))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def latest_detail_items_ds(
    history: "ray.data.Dataset", run_started: dict[int, object]
) -> "ray.data.Dataset":
    """A1 at state scale: per (id, context) the row of the most recent
    run — the distributed form of ``frontier.state.latest_detail_items``
    (which is pandas on the driver, right up to ~10^6 keys).

    Shuffle key = the entity key ``(context, id)``, 64 buckets; the
    per-key top-1 computes vectorized inside each bucket. ``run_started``
    (the tiny runs ledger) broadcasts via closure. Per-batch
    pre-reduction keeps one candidate row per key before the exchange."""
    import pandas as pd

    from ..kernels.partitioning import keyed_exchange

    def latest(df: pd.DataFrame) -> pd.DataFrame:
        started = df["created_at"].map(run_started)
        return (
            df.assign(_started=started)
            .sort_values(["_started", "created_at"], kind="stable")
            .drop_duplicates(subset=["id", "context"], keep="last")
            .drop(columns=["_started"])
        )

    return keyed_exchange(
        history.map_batches(latest, batch_format="pandas"), ["context", "id"], latest, 64
    )


def projekt_core(items: "ray.data.Dataset") -> "ray.data.Dataset":
    """dfg-gepris.sql:292-339 (create_projekte_from_items) core columns."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = [json.loads(s) for s in batch.column("item").to_pylist()]
        attrs = [r.get("attributes", {}) for r in rows]
        return pa.table(
            {
                "id": pa.array([r["id"] for r in rows], type=pa.int64()),
                "name_de": pa.array([r.get("name_de") for r in rows], type=pa.string()),
                "name_en": pa.array([r.get("name_en") for r in rows], type=pa.string()),
                "beschreibung_de": pa.array([r.get("beschreibung_de") for r in rows], type=pa.string()),
                "beschreibung_en": pa.array([r.get("beschreibung_en") for r in rows], type=pa.string()),
                "dfg_verfahren": pa.array([a.get("dfg_verfahren") for a in attrs], type=pa.string()),
                "foerderung_beginn": pa.array(
                    [a.get("foerderung_beginn") for a in attrs], type=pa.int64()
                ),
                "foerderung_ende": pa.array(
                    [a.get("foerderung_ende") for a in attrs], type=pa.int64()
                ),
            }
        )

    return _items(items, "projekt").map_batches(fn, batch_format="pyarrow")


def person_core(items: "ray.data.Dataset") -> "ray.data.Dataset":
    """dfg-gepris.sql:233-248 (create_personen_from_items) columns."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = [json.loads(s) for s in batch.column("item").to_pylist()]
        attrs = [r.get("attributes", {}) for r in rows]
        return pa.table(
            {
                "id": pa.array([r["id"] for r in rows], type=pa.int64()),
                "name_de": pa.array([r.get("name_de") for r in rows], type=pa.string()),
                "verstorben": pa.array([r.get("verstorben") for r in rows], type=pa.bool_()),
                "gender": pa.array([r.get("gender") for r in rows], type=pa.string()),
                "adresse": pa.array([a.get("adresse") for a in attrs], type=pa.string()),
                "mail": pa.array([a.get("mail") for a in attrs], type=pa.string()),
                "internet": pa.array([a.get("internet") for a in attrs], type=pa.string()),
                "orcid_id": pa.array([a.get("orcid_id") for a in attrs], type=pa.string()),
            }
        )

    return _items(items, "person").map_batches(fn, batch_format="pyarrow")


def institution_core(items: "ray.data.Dataset") -> "ray.data.Dataset":
    """dfg-gepris.sql:250-261 (create_institutionen_from_items) columns."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = [json.loads(s) for s in batch.column("item").to_pylist()]
        attrs = [r.get("attributes", {}) for r in rows]
        return pa.table(
            {
                "id": pa.array([r["id"] for r in rows], type=pa.int64()),
                "name_de": pa.array([r.get("name_de") for r in rows], type=pa.string()),
                "adresse": pa.array([a.get("adresse") for a in attrs], type=pa.string()),
                "telefon": pa.array([a.get("telefon") for a in attrs], type=pa.string()),
                "internet": pa.array([a.get("internet") for a in attrs], type=pa.string()),
            }
        )

    return _items(items, "institution").map_batches(fn, batch_format="pyarrow")


def reference_edges(items: "ray.data.Dataset", field: str) -> "ray.data.Dataset":
    """J9 flat-map: one edge row per referenced id of ``field``."""

    def fn(batch: pa.Table) -> pa.Table:
        projekt_ids, person_ids = [], []
        for s in batch.column("item").to_pylist():
            r = json.loads(s)
            for pid in r.get("attributes", {}).get(field, []):
                projekt_ids.append(r["id"])
                person_ids.append(int(pid))
        return pa.table(
            {
                "projekt_id": pa.array(projekt_ids, type=pa.int64()),
                "person_id": pa.array(person_ids, type=pa.int64()),
            }
        )

    return _items(items, "projekt").map_batches(fn, batch_format="pyarrow")


def all_reference_edges(items: "ray.data.Dataset", kind: str = "person") -> "ray.data.Dataset":
    """J9 full view, distributed: unnest EVERY person- (or institution-)
    reference array of the projekt items into
    (entity_id, projekt_id, reference_type) rows — the Dataset form of
    ``frontier.state.person/institution_projekt_references``
    (dfg-gepris.sql:99-115), for item volumes beyond the driver."""
    from ..normalise.attribute_maps import INSTITUTIONEN_REFERENCES, PERSONEN_REFERENCES

    fields = PERSONEN_REFERENCES if kind == "person" else INSTITUTIONEN_REFERENCES
    id_col = f"{kind}_id"

    def fn(batch: pa.Table) -> pa.Table:
        eids, pids, types = [], [], []
        for s in batch.column("item").to_pylist():
            r = json.loads(s)
            attrs = r.get("attributes", {})
            for field in fields:
                for eid in attrs.get(field, []):
                    eids.append(int(eid))
                    pids.append(r["id"])
                    types.append(field)
        return pa.table(
            {
                id_col: pa.array(eids, type=pa.int64()),
                "projekt_id": pa.array(pids, type=pa.int64()),
                "reference_type": pa.array(types, type=pa.string()),
            }
        )

    return _items(items, "projekt").map_batches(fn, batch_format="pyarrow")


def expand_person_frontier_ds(items: "ray.data.Dataset", seen_filter) -> "ray.data.Dataset":
    """J5 at frontier scale: distinct person ids referenced by this
    run's projekt items, EXCEPT persons already known — the anti-join
    running against the sharded URL-seen actor pool instead of a
    driver-side set (database.py:118-147 re-expressed; the north-star
    frontier-expansion path).

    ``seen_filter.add`` marks the survivors seen as a side effect —
    exactly the reference's insert-new-frontier-entries semantics."""
    from ray.data.aggregate import Count

    edges = all_reference_edges(items, "person")
    # distinct referenced ids first (pre-aggregate shrinks the actor
    # round-trips to one per distinct id, not one per edge)
    distinct = edges.groupby("person_id").aggregate(Count(alias_name="n"))

    def novel_only(batch: pa.Table) -> pa.Table:
        ids = batch.column("person_id").to_pylist()
        new = seen_filter.add([f"person/{i}" for i in ids])
        return pa.table(
            {"person_id": pa.array([i for i, keep in zip(ids, new) if keep], type=pa.int64())}
        )

    return distinct.map_batches(novel_only, batch_format="pyarrow")


def hierarchy_rows(items: "ray.data.Dataset") -> "ray.data.Dataset":
    """J10 flat-map: (id, parent_id, root_id) closure rows per
    institution tree (row-local; dfg-gepris.sql:117-141)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids, parents, roots = [], [], []

        def walk(children, parent_id, root_id):
            for child in children:
                if isinstance(child, dict):
                    for cid, sub in child.items():
                        ids.append(int(cid))
                        parents.append(parent_id)
                        roots.append(root_id)
                        walk(sub, int(cid), root_id)
                else:
                    ids.append(int(child))
                    parents.append(parent_id)
                    roots.append(root_id)

        for s in batch.column("item").to_pylist():
            r = json.loads(s)
            subs = r.get("trees", {}).get("normalised_subinstitutions")
            if subs is None:
                continue
            root = int(r["id"])
            ids.append(root)
            parents.append(None)
            roots.append(root)
            walk(subs, root, root)
        return pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "parent_id": pa.array(parents, type=pa.int64()),
                "root_id": pa.array(roots, type=pa.int64()),
            }
        )

    return _items(items, "institution").map_batches(fn, batch_format="pyarrow")


def status_counts(items: "ray.data.Dataset") -> "ray.data.Dataset":
    from ray.data.aggregate import Count

    return items.groupby("status").aggregate(Count(alias_name="n"))


def host_health(items: "ray.data.Dataset") -> "ray.data.Dataset":
    """(host, n_total, n_success, n_moved, n_error) — the per-host
    crawl-health monitor: outcome counts of the details chain grouped
    by host.  A production scheduler reads this every cycle to cut the
    politeness budget of hosts whose error share spikes (soft-bans,
    layout changes) and to re-queue moved-heavy hosts for recrawl —
    the per-host refinement of the reference's run counters
    (pipelines.py run stats, ST8) and data-monitor deltas.

    Distributed shape: per-batch pivot to one count row per host (a
    batch covers few hosts, so partials are tiny), then ONE small
    host-keyed aggregate — never a row-level status shuffle."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        p = df.groupby("host").agg(
            n_total=("status", "size"),
            n_success=("status", lambda s: int((s == "success").sum())),
            n_moved=("status", lambda s: int((s == "moved").sum())),
            n_error=("status", lambda s: int((s == "error").sum())),
        ).reset_index()
        return p

    return (
        items.map_batches(partial, batch_format="pandas")
        .groupby("host")
        .aggregate(
            Sum("n_total", alias_name="n_total"),
            Sum("n_success", alias_name="n_success"),
            Sum("n_moved", alias_name="n_moved"),
            Sum("n_error", alias_name="n_error"),
        )
    )
