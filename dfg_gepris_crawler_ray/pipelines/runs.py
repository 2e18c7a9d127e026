"""Run orchestration: the reference's three spiders as batch runs.

Each run is one driver invocation (≙ one ``scrapy crawl`` / one
``ray job submit``) over the pages corpus + the durable CrawlStore:

- ``run_search``  ≙ ``scrapy crawl search_results -a context=…``
  (SURVEY.md §3.1): listing pages → SearchResultItems → J2 state
  upsert + J6 not-found marking + duplicate-id detection (ST1).
- ``run_details`` ≙ ``scrapy crawl details -a context=… -a ids=…``
  (SURVEY.md §3.2): id source (S4–S6) → J1 priority frontier → host
  budget + planned fetch order → fetch+extract chain → J3 upsert +
  J4 history append + J5/J7/J8 post-jobs → manifest.
- ``run_data_monitor`` ≙ ``scrapy crawl data_monitor`` (§3.3).

The monitor page and the search listings are static pages of one
kind, so one scan serves them all: :func:`listing_scan` reads →
annotates → keeps the listing pages → ``extract_listing_batch``, which
turns the monitor page into one row (``context=""``). A cron day
(``pipelines.schedule``) runs it once through :func:`listing_pass` and
hands the monitor body and each context's search body its slice; a
standalone ``run_search`` / ``run_data_monitor`` runs the same scan
narrowed to its own rows.

One body per spider, two state residencies. The search and details
bodies each write their lifecycle once; ``backend`` picks where the
crawl state lives while the run transitions it:

- ``"pandas"`` (:class:`_DriverState`): state and history are driver
  frames and every transition is the exact pandas semantics of
  ``frontier.state`` — at reference corpus scale (~10^5 keys/context)
  the state fits comfortably on the driver;
- ``"ds"`` (:class:`_DatasetState`): state and history stay Datasets
  and every transition runs through ``frontier.state_ds`` — the
  10^10-key form, in which only run-bounded artifacts reach the driver.

The pages corpus never leaves the streaming path in either form; a
collected listing pass is a driver frame under ``"pandas"`` and a
materialized Dataset under ``"ds"``. ``run_search_ds`` /
``run_details_ds`` are the ``backend="ds"`` calls.
"""

from __future__ import annotations

import json
import os
import re
import time
from datetime import datetime, timezone

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..frontier import state as S
from ..frontier import state_ds as SD
from ..frontier.manifests import CrawlStore, content_hash
from ..kernels.partitioning import ROUTE_BATCH, keyed_exchange
from ..frontier.politeness import apply_host_budget
from ..sources.pages import annotate_pages, read_pages
from ..stages.extract_stage import RESULT_SCHEMA
from ..stages.search_stage import extract_listing_batch
from . import derive
from .details import run_details_extraction

#: the ``ds`` search run's duplicate-id sample cap (ST1 diagnostic)
DUP_SAMPLE_CAP = 64


def _now():
    return datetime.now(timezone.utc).isoformat()


def _db_spec(ids_spec):
    """``db:all:N`` / ``db:needed:N`` → (only_needed, N); else None."""
    if isinstance(ids_spec, str) and re.match(r"db:(all|needed):\d+", ids_spec):
        _, mode, limit = ids_spec.split(":")
        return mode == "needed", int(limit)
    return None


def _size(rows) -> int:
    return len(rows) if isinstance(rows, pd.DataFrame) else rows.count()


# ---------------------------------------------------------------------------
# id sources (S4–S6, spiders/details.py:29-51)
# ---------------------------------------------------------------------------

def parse_ids_spec(ids_spec, state: pd.DataFrame, runs: pd.DataFrame, context: str) -> list[int]:
    """``[1,2,3]`` literal | ``file.json`` | ``db:all:N`` | ``db:needed:N``."""
    if isinstance(ids_spec, (list, tuple, set)):
        return sorted(int(i) for i in set(ids_spec))
    if isinstance(ids_spec, str) and ids_spec.startswith("[") and ids_spec.endswith("]"):
        return sorted({int(x) for x in ids_spec[1:-1].split(",")})
    if isinstance(ids_spec, str) and ids_spec.endswith(".json"):
        with open(ids_spec) as f:
            return sorted({int(p["id"]) for p in json.load(f)})
    db = _db_spec(ids_spec)
    if db:
        return S.get_ids(state, runs, context, only_needed=db[0], limit=db[1])
    raise ValueError(f"Wrong format of the 'ids' argument: {ids_spec!r}")


def plan_frontier(
    ids: list[int],
    context: str,
    host_lookup=None,
    max_per_host: int | None = None,
) -> pd.DataFrame:
    """J1-ordered ids → planned frontier (host cap + fetch_seq).

    ``ids`` arrive in J1 priority order (never-checked first, stalest
    first) and that order is preserved through the host budget — the
    deterministic crawl-order contract (SURVEY.md §2.7)."""
    hosts = [host_lookup(context, i) if host_lookup else "default" for i in ids]
    frontier = pd.DataFrame({"context": context, "id": ids, "host": hosts})
    return apply_host_budget(frontier, max_per_host=max_per_host)


# ---------------------------------------------------------------------------
# where the state lives
# ---------------------------------------------------------------------------

class _DriverState:
    """State and history as driver frames; ``frontier.state``
    transitions. Each method is one lifecycle step of the run bodies."""

    name = "pandas"

    def __init__(self, store: CrawlStore):
        self.store = store
        self.runs = store.load_table("runs", S.empty_runs())
        self.state = self._load("state", S.empty_state())
        self.history = self._load("history", S.empty_history())

    def _load(self, name, empty):
        return self.store.load_table(name, empty)

    def _save(self, name, table):
        self.store.save_table(name, table)

    def open_run(self, spider: str, context: str) -> int:
        self.runs, run_id = S.store_run(self.runs, spider, context, _now())
        return run_id

    def close_run(self, run_id: int, total_items: int) -> None:
        self.runs = S.update_run_result(self.runs, run_id, _now(), total_items)

    def save(self, run_id: int, delta, *tables: str) -> None:
        for name in tables:
            self._save(name, getattr(self, name))
        self.store.save_table("runs", self.runs)
        self._write_delta(run_id, delta)

    def _write_delta(self, run_id, delta):
        self.store.write_run_delta(run_id, delta)

    delta_hash = staticmethod(content_hash)
    # a run's rows in this backend's form: driver frames here,
    # materialized Datasets in _DatasetState; an empty frontier's delta
    # is typed from the extract stage's schema
    collect = staticmethod(ray.data.Dataset.to_pandas)
    empty_delta = staticmethod(lambda: RESULT_SCHEMA.empty_table().to_pandas())

    @staticmethod
    def part(listing, context: str):
        """``context``'s rows of a collected listing pass (``""``: the
        monitor row)."""
        return listing[listing["context"] == context].reset_index(drop=True)

    # -- details ---------------------------------------------------------
    def frontier(self, ids_spec, context, host_lookup, max_per_host):
        """J1 + host budget → the planned frontier frame."""
        ids = parse_ids_spec(ids_spec, self.state, self.runs, context)
        return plan_frontier(ids, context, host_lookup, max_per_host)

    def tally(self, delta) -> tuple[dict, dict]:
        counts = delta["status"].value_counts().to_dict()
        return counts, dict(rows=int(len(delta)),
                            pages_fetched=int(delta["pages_fetched"].sum()),
                            attempts=int(delta["attempts"].sum()))

    def append_history(self, delta, context, run_id):  # J4, per-key change dedup
        rows = _history_rows(delta, context, run_id).to_dict("records")
        self.history = S.insert_detail_items(self.history, self.runs, rows)

    def upsert_details(self, delta, context, run_id):  # J3 (+ J5)
        # every processed id (success AND moved/error rows all call
        # upsert_available_item(id, None, details) — pipelines.py:52-54,
        # middlewares.py:35,50)
        self.state = S.upsert_from_details(self.state, list(delta["id"]), context, run_id)
        if context == "projekt":  # J5 reads this run's history rows (J4)
            self.state = S.expand_person_frontier(self.state, self.history, run_id)

    def mark_moved(self, context, run_id):  # J7 (+ J8)
        latest = S.latest_detail_items(self.history, self.runs)
        if context == "person":
            refs = S.person_projekt_references(latest)
        else:
            refs = S.institution_projekt_references(latest)
        self.state = S.mark_projekts_for_moved(self.state, self.history, run_id, context, refs)
        if context == "institution":
            hierarchy = S.institution_hierarchy(S.latest_items(latest, self.state))
            self.state = S.mark_roots_for_moved_subinstitutions(
                self.state, self.history, run_id, hierarchy
            )

    # -- search ----------------------------------------------------------
    def listing_checks(self, results) -> tuple[list[int], int, list[int]]:
        """ST1 duplicate ids (all of them) and their count, and the ST2
        page totals."""
        ids = sorted(int(i) for i, n in results["id"].value_counts().items() if n > 1)
        return ids, len(ids), sorted({int(t) for t in results["page_total"].unique() if t >= 0})

    def upsert_search(self, results, context, run_id):  # J2 + J6
        observations = [(int(r.id), r.item) for r in results.itertuples()]
        self.state = S.upsert_from_search(self.state, observations, context, run_id)
        self.state = S.mark_not_found(self.state, context, run_id)


def _history_rows(delta: pd.DataFrame, context: str, run_id: int) -> pd.DataFrame:
    """A details delta as history rows (the item only on success)."""
    return pd.DataFrame(
        {
            "id": delta["id"].astype("int64"),
            "context": context,
            "created_at": run_id,
            "item": delta["item"].where(delta["status"] == "success", None),
            "status": delta["status"],
        }
    )


class _DatasetState(_DriverState):
    """State and history as Datasets; ``frontier.state_ds`` transitions.
    Neither table materializes on the driver; the runs ledger (one row
    per run) stays a driver frame.

    Two frontier regimes, chosen by the ids spec:

    - **budgeted** (``db:*:N`` with N>0, literal lists, id files): the
      frontier is run-bounded by construction, so it collects to an
      ordered driver frame (exact planned-order manifests, broadcast
      semi-join page selection) — the reference's cron budgets never
      exceed 50k ids.
    - **resident** (``db:all:0`` / ``db:needed:0``): the frontier NEVER
      touches the driver — J1 selection stays a Dataset
      (``get_frontier_ds``), the host budget applies per host
      distributed, and page selection fuses into the extract shuffle
      (``run_details_extraction`` over a key Dataset).

    Both regimes merge the run into the state in one exchange: J3, and
    J5 on a projekt run, through ``upsert_from_details_bucketed``.
    """

    name = "dataset"

    def _load(self, name, empty):
        return self.store.load_table_ds(name, empty)

    def _save(self, name, table):
        # no materialize before the save: each table is consumed exactly
        # once here, so write_parquet streams the plan's blocks straight
        # to the versioned directory
        self.store.save_table_ds(name, table)

    def _write_delta(self, run_id, delta):
        delta.write_parquet(os.path.join(self.store.run_dir(run_id), "items_ds"))

    @staticmethod
    def delta_hash(delta, cols):
        return None  # a content hash would collect the delta

    collect = staticmethod(ray.data.Dataset.materialize)
    empty_delta = staticmethod(lambda: ray.data.from_arrow(RESULT_SCHEMA.empty_table()))

    @staticmethod
    def part(listing, context):
        return listing.map_batches(
            lambda b: b.filter(pc.equal(b.column("context"), context)),
            batch_format="pyarrow", zero_copy_batch=True,
        ).materialize()

    # -- details ---------------------------------------------------------
    def frontier(self, ids_spec, context, host_lookup, max_per_host):
        db = _db_spec(ids_spec)
        if db is None:
            ids = parse_ids_spec(ids_spec, S.empty_state(), self.runs, context)
        elif db[1] > 0:  # budget-bounded: distributed sort, bounded collect
            ids = SD.get_ids_ds(self.state, self.runs, context, only_needed=db[0], limit=db[1])
        else:
            return self._resident_frontier(context, db[0], host_lookup, max_per_host)
        return plan_frontier(ids, context, host_lookup, max_per_host)

    def _resident_frontier(self, context, only_needed, host_lookup, max_per_host):
        sel = SD.get_frontier_ds(self.state, self.runs, context, only_needed=only_needed)
        if max_per_host is not None:
            # each host's keys co-locate and the J1 priority order is
            # rebuilt from the carried (tier, rank, id) columns —
            # apply_host_budget's keep-first-N-per-host without a
            # global sort
            def add_host(df: pd.DataFrame) -> pd.DataFrame:
                hosts = [host_lookup(context, int(i)) if host_lookup else "default"
                         for i in df["id"]]
                return df.assign(host=hosts)

            def cap_host(g: pd.DataFrame) -> pd.DataFrame:
                g = g.sort_values(["tier", "rank", "id"], kind="mergesort")
                return g.head(max_per_host)

            sel = (
                sel.map_batches(add_host, batch_format="pandas")
                .groupby("host")
                .map_groups(cap_host, batch_format="pandas")
            )
        return sel.map_batches(
            lambda df: pd.DataFrame({"context": context, "id": df["id"].astype("int64")}),
            batch_format="pandas",
        ).materialize()

    def tally(self, delta):
        """One execution: per-batch (status, count, pages, attempts)
        partials — a few rows per batch — summed on the driver. The
        batches bundle small blocks (``ROUTE_BATCH`` rows): Ray passes an
        empty block through a map without calling it, as a block with
        no schema, so a small run's empty blocks must ride in one task
        with its typed ones."""

        def partial(b: pa.Table) -> pa.Table:
            return b.group_by("status").aggregate(
                [([], "count_all"), ("pages_fetched", "sum"), ("attempts", "sum")]
            )

        counts, pages_fetched, attempts = {}, 0, 0
        partials = delta.map_batches(partial, batch_format="pyarrow", batch_size=ROUTE_BATCH)
        for r in partials.take_all():
            counts[r["status"]] = counts.get(r["status"], 0) + r["count_all"]
            pages_fetched += r["pages_fetched_sum"]
            attempts += r["attempts_sum"]
        counts = dict(sorted(counts.items()))
        return counts, dict(rows=sum(counts.values()), pages_fetched=pages_fetched,
                            attempts=attempts)

    def append_history(self, delta, context, run_id):
        rows = delta.map_batches(_history_rows, batch_format="pandas",
                                 fn_args=(context, run_id))
        self.history = SD.insert_detail_items_ds(self.history, self.runs, rows).materialize()

    def upsert_details(self, delta, context, run_id):
        refs = derive.all_reference_edges(delta, "person") if context == "projekt" else None
        self.state = SD.upsert_from_details_bucketed(self.state, delta, context, run_id, refs)

    def mark_moved(self, context, run_id):
        run_started = dict(zip(self.runs["id"].astype(int), self.runs["run_started_at"]))
        latest = derive.latest_detail_items_ds(self.history, run_started).materialize()
        refs = derive.all_reference_edges(latest, kind=context)
        self.state = SD.mark_projekts_for_moved_ds(
            self.state, self.history, run_id, context, refs
        )
        if context == "institution":
            # hierarchy closure from the latest institution items
            # (row-local tree flatten — derive.hierarchy_rows shape)
            self.state = SD.mark_roots_for_moved_subinstitutions_ds(
                self.state, self.history, run_id, derive.hierarchy_rows(latest)
            )

    # -- search ----------------------------------------------------------
    def listing_checks(self, results):
        """Per-batch partial counts → one id-routed exchange → the exact
        duplicate count, the first ``DUP_SAMPLE_CAP`` duplicate ids
        ascending and the page totals, in one execution. The full
        duplicate list is state-cardinality on a pathological corpus, so
        it never reaches the driver or the manifest."""

        def id_counts(df: pd.DataFrame) -> pd.DataFrame:
            return df.groupby(["id", "page_total"], as_index=False).size()

        def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
            n = group.groupby("id")["size"].sum()
            dups = np.sort(n.index[n > 1].to_numpy(dtype=np.int64))
            return pd.DataFrame({
                "ids": [dups[:DUP_SAMPLE_CAP]],
                "count": [len(dups)],
                "totals": [np.unique(group["page_total"].to_numpy(dtype=np.int64))],
            })

        rows = keyed_exchange(
            results.map_batches(id_counts, batch_format="pandas"), "id", per_bucket, 64
        ).take_all()
        ids = sorted(int(i) for r in rows for i in r["ids"])[:DUP_SAMPLE_CAP]
        totals = sorted({int(t) for r in rows for t in r["totals"] if t >= 0})
        return ids, sum(int(r["count"]) for r in rows), totals

    def upsert_search(self, results, context, run_id):
        observations = results.map_batches(
            lambda df: pd.DataFrame({"id": df["id"].astype("int64"), "item": df["item"]}),
            batch_format="pandas",
        )
        self.state = SD.upsert_from_search_ds(self.state, observations, context, run_id)


def _backend(backend: str) -> type[_DriverState]:
    if backend == "pandas":
        return _DriverState
    if backend == "ds":
        return _DatasetState
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# details run
# ---------------------------------------------------------------------------

def run_details(
    store: CrawlStore,
    pages_dir: str,
    context: str,
    ids_spec="db:all:0",
    host_lookup=None,
    max_per_host: int | None = None,
    politeness=None,
    backend: str = "pandas",
) -> dict:
    """One details run: J1 frontier → extract → J4 history append → J3
    state upsert (with J5 on a projekt run, which reads J4's rows on the
    driver; under ``backend="ds"`` both are one state exchange) → J7
    (+ J8) for the other contexts → tally → manifest.

    Returns ``run_id``, ``frontier`` (the planned frame, None when the
    ``ds`` backend keeps it resident), ``frontier_size``, ``delta`` (the
    processed rows: a DataFrame, or a Dataset under ``backend="ds"``),
    ``manifest`` and ``n_<status>``."""
    st = _backend(backend)(store)
    run_id = st.open_run("details", context)

    frontier = st.frontier(ids_spec, context, host_lookup, max_per_host)  # J1
    resident = not isinstance(frontier, pd.DataFrame)
    frontier_size = _size(frontier)
    t0 = time.perf_counter()
    if frontier_size:
        # a driver frontier broadcasts its keys; a resident one is a
        # (context, id) Dataset that joins inside the extract shuffle
        keys = frontier if resident else [(context, int(i)) for i in frontier["id"]]
        delta = st.collect(
            run_details_extraction(pages_dir, keys, politeness=politeness)
        )
    else:
        # empty frontier crawls nothing (reference: no ids → the spider
        # issues no requests, spiders/details.py:53-57)
        delta = st.empty_delta()
    extract_wall_s = round(time.perf_counter() - t0, 3)

    st.append_history(delta, context, run_id)  # J4
    # J3, and the post-run jobs (pipelines.py:36-43): J5 rides J3's pass
    st.upsert_details(delta, context, run_id)
    if context != "projekt":
        st.mark_moved(context, run_id)  # J7 (+ J8)

    status_counts, metrics = st.tally(delta)
    st.close_run(run_id, int(status_counts.get("success", 0)))
    st.save(run_id, delta, "state", "history")
    manifest = store.write_manifest(
        run_id,
        spider="details",
        context=context,
        pages_dir=pages_dir,
        ids_spec=str(ids_spec),
        frontier_size=frontier_size,
        frontier_resident=resident,
        planned_order_hash=(
            None if resident else content_hash(frontier, ["fetch_seq", "context", "id"])
        ),
        status_counts=status_counts,
        delta_hash=st.delta_hash(delta, ["id", "context", "status"]),
        state_backend=st.name,
        parent_run=run_id - 1 if run_id > 1 else None,
        metrics=dict(
            extract_wall_s=extract_wall_s,
            rows_per_s=round(metrics["rows"] / extract_wall_s, 1) if extract_wall_s else None,
            **metrics,
        ),
    )
    return dict(run_id=run_id, frontier=None if resident else frontier,
                frontier_size=frontier_size, delta=delta, manifest=manifest,
                **{f"n_{k}": v for k, v in status_counts.items()})


def run_details_ds(store: CrawlStore, pages_dir: str, context: str, **kwargs) -> dict:
    """``run_details`` with Dataset-resident state (``backend="ds"``)."""
    return run_details(store, pages_dir, context, backend="ds", **kwargs)


# ---------------------------------------------------------------------------
# search run
# ---------------------------------------------------------------------------

def listing_scan(pages_dir: str, contexts=(), monitor: bool = False) -> ray.data.Dataset:
    """The listing scan: read → annotate → keep the search pages of
    ``contexts`` (and the data-monitor page when ``monitor``) →
    ``extract_listing_batch``. ``run_daily_cycle`` runs it once for the
    monitor and all contexts; a standalone run narrows it to its own
    rows."""
    wanted = pa.array(list(contexts), type=pa.string())

    def keep(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(b.column("kind"), "search"),
                       pc.is_in(b.column("context"), value_set=wanted))
        if monitor:
            mask = pc.or_(mask, pc.equal(b.column("kind"), "monitor"))
        return b.filter(mask)

    ds = annotate_pages(read_pages(pages_dir), num_buckets=8)
    ds = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(extract_listing_batch, batch_format="pyarrow")


def listing_pass(pages_dir: str, contexts, backend: str = "pandas") -> tuple[list[str], dict]:
    """A cron day's one listing scan, collected once in ``backend``'s
    form: the monitor items and each context's search rows."""
    cls = _backend(backend)
    listing = cls.collect(listing_scan(pages_dir, contexts, monitor=True))
    monitor = cls.part(listing, "")
    items = (list(monitor["item"]) if isinstance(monitor, pd.DataFrame)
             else [r["item"] for r in monitor.take_all()])
    return items, {c: cls.part(listing, c) for c in contexts}


def run_search(store: CrawlStore, pages_dir: str, context: str, backend: str = "pandas") -> dict:
    """One search run. Under ``backend="ds"`` ``items`` is a Dataset
    (else a DataFrame) and ``duplicate_ids`` holds the first
    ``DUP_SAMPLE_CAP`` ascending ids of the exact ``duplicate_count``
    (else all of them)."""
    results = _backend(backend).collect(listing_scan(pages_dir, (context,)))
    return _search(store, pages_dir, context, backend, results)


def _search(store: CrawlStore, pages_dir: str, context: str, backend: str, results) -> dict:
    """The search run body over ``context``'s collected listing rows."""
    st = _backend(backend)(store)
    run_id = st.open_run("search_results", context)
    n_items = _size(results)

    # ST1 duplicate-id detection across pages (warn-only in the
    # reference) and pagination sanity (ST2: every page reported the
    # same total)
    duplicate_ids, duplicate_count, totals = st.listing_checks(results)

    st.upsert_search(results, context, run_id)  # J2 + J6

    st.close_run(run_id, n_items)
    st.save(run_id, results, "state")
    manifest = store.write_manifest(
        run_id,
        spider="search_results",
        context=context,
        pages_dir=pages_dir,
        items=n_items,
        duplicate_ids=duplicate_ids,
        duplicate_count=duplicate_count,
        reported_totals=totals,
        delta_hash=st.delta_hash(results, ["id", "context"]),
        state_backend=st.name,
    )
    return dict(run_id=run_id, items=results, duplicate_ids=duplicate_ids,
                duplicate_count=duplicate_count, totals=totals, manifest=manifest)


def run_search_ds(store: CrawlStore, pages_dir: str, context: str) -> dict:
    """``run_search`` with Dataset-resident state (``backend="ds"``)."""
    return run_search(store, pages_dir, context, backend="ds")


# ---------------------------------------------------------------------------
# data monitor run
# ---------------------------------------------------------------------------

def run_data_monitor(store: CrawlStore, pages_dir: str) -> dict:
    rows = listing_scan(pages_dir, monitor=True).take_all()
    return _data_monitor(store, [r["item"] for r in rows])


def _data_monitor(store: CrawlStore, items: list[str]) -> dict:
    """The monitor run body over the listing's monitor items (canonical
    JSON; exactly one per corpus)."""
    if not items:
        raise ValueError("no data-monitor page in corpus")
    item = json.loads(items[0])
    dm = store.load_table("data_monitor", pd.DataFrame())
    row = dict(run_ended_at=_now(), **item)
    dm = pd.concat([dm, pd.DataFrame([row])], ignore_index=True)
    store.save_table("data_monitor", dm)
    return dict(item=item, monitor_json=items[0])


def get_latest_dm_stat(store: CrawlStore, stat: str):
    """argmax over data_monitor.run_ended_at (database.py:231-241)."""
    dm = store.load_table("data_monitor", pd.DataFrame())
    if not len(dm):
        return None
    return dm.sort_values("run_ended_at").iloc[-1][stat]
