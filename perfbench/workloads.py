"""The benchmark's workloads: set-up, one timed pass with its output
check, the traced pass and the per-layer ledger.

Each workload drives the engine only through public package functions.
A pass is timed around the pipeline call alone; its output is checked
against the generator's formulas (``perfbench.corpus``) afterwards.
"""

from __future__ import annotations

import glob
import math
import os
import shutil
import statistics
import time
import traceback
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from dfg_gepris_crawler_ray.extract import details as D
from dfg_gepris_crawler_ray.frontier import state as S
from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore
from dfg_gepris_crawler_ray.pipelines.details import run_details_extraction
from dfg_gepris_crawler_ray.pipelines.runs import run_data_monitor, run_details, run_search
from dfg_gepris_crawler_ray.pipelines.schedule import DAILY_NEEDED_BUDGETS, run_daily_cycle
from dfg_gepris_crawler_ray.sources.pages import (
    DETAIL_KINDS,
    annotate_batch,
    annotate_pages,
    filter_detail_batch,
    filter_detail_pages,
    read_pages,
)
from dfg_gepris_crawler_ray.stages import extract_stage as X
from dfg_gepris_crawler_ray.stages.search_stage import extract_search_batch
from dfg_gepris_crawler_ray.testdata import gen_pages as G

from . import corpus as C
from .ledger import LayerTimers, Tracer, ray_op_summary

#: ``data_monitor_html`` hard-codes this project count
MONITOR_PROJECT_COUNT = 136266

#: the layer functions the extract stage calls, by the module it looks
#: each name up in
KERNEL_LAYERS = {
    "kernels.htmlmini": (X, ["parse_html"]),
    "extract.validators": (X, ["check_details_structure", "check_details_exists",
                               "check_language"]),
    "extract.details": (D, ["parse_projekt_de", "parse_projekt_en", "parse_projekt_result",
                            "assemble_projekt", "parse_person", "parse_institution"]),
    "kernels.jsoncanon": (X, ["dumps_canonical"]),
}

#: every per-layer metric with its unit; a layer a workload does not
#: exercise reports 0
PER_LAYER_UNITS = {
    "sources.scan_s": "s",
    "sources.rows_out": "count",
    "kernels.htmlmini.parse_s": "s",
    "kernels.htmlmini.pages": "count",
    "kernels.htmlmini.mb_in": "MB",
    "extract.validators_s": "s",
    "extract.validators.rejects": "count",
    "extract.details.parse_s": "s",
    "kernels.jsoncanon.dumps_s": "s",
    "stages.extract_s": "s",
    "stages.pages_per_s_core": "pages/s",
    "stages.overhead_s": "s",
    "stages.attempts": "count",
    "stages.pages_fetched": "count",
    "stages.success_per_attempt": "ratio",
    "pipelines.details.ray_op_s": "s",
    "pipelines.details.unattributed_s": "s",
    "pipelines.details.ray_overhead_s": "s",
    "pipelines.details.n_conflicts": "count",
    "pipelines.details.spilled_mb": "MB",
    "pipelines.details.shuffled_wall_s": "s",
    "pipelines.details.shuffled_conflicts": "count",
    "stages.search_s": "s",
    "stages.search_rows": "count",
    "pipelines.runs.monitor_s": "s",
    "pipelines.runs.search_s": "s",
    "pipelines.runs.details_s": "s",
    "frontier.state.j1_s": "s",
    "frontier.state.upsert_s": "s",
    "frontier.state.history_s": "s",
    "frontier.state.post_jobs_s": "s",
    "frontier.state.state_rows": "count",
    "frontier.state.history_rows": "count",
    "frontier.manifests.load_s": "s",
    "frontier.manifests.save_s": "s",
    "frontier.manifests.store_mb": "MB",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """A pipeline call returned output that disagrees with the oracle."""


def _require(errors: list[str]) -> None:
    if errors:
        raise CheckFailed("; ".join(errors[:5]))


class Ops:
    """Failure accounting: one op is one top-level pipeline call and its
    output check. A raise or a failed check is recorded with its type
    and never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark must outlive a failing op
            self.failed += 1
            self.failures.append(dict(op=name, type=type(exc).__name__, message=str(exc)[:300]))
            traceback.print_exc(file=sys.stderr)
            return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _detail_files(pages_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(pages_dir, "part-*.parquet")))


def _listing_files(pages_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(pages_dir, "search_pages-*.parquet")))


def _read(files: list[str]) -> pa.Table:
    return pa.concat_tables(pq.read_table(f, columns=["url", "warc_ts", "html"]) for f in files)


def _dir_mb(path: str) -> float:
    total = 0
    for dirpath, _, names in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, n)) for n in names)
    return total / 1e6


class Workload:
    """Shared shape: ``generate`` and ``warm_up`` are the set-up,
    ``run_pass`` is one untraced timed pass, ``traced_pass`` the same
    work with spans, ``verify`` the untraced run's whole-run checks and
    ``ledger`` the traced run's per-layer metrics."""

    def __init__(self, work_dir: str, n_docs: int, seed: int, ops: Ops, tracer: Tracer):
        self.work_dir = work_dir
        self.pages_dir = os.path.join(work_dir, "pages")
        self.n_docs = n_docs
        self.seed = seed
        self.ops = ops
        self.tracer = tracer
        self.shape: dict = {}
        self.record: dict = {}

    def generate(self) -> float:
        t0 = time.perf_counter()
        self.shape = C.write_corpus(self.pages_dir, self.n_docs, self.seed, shuffled=False)
        return time.perf_counter() - t0

    def verify(self) -> None:
        pass

    # -- in-process stage runs -------------------------------------------------
    def _inprocess(self, tbl: pa.Table, docs) -> tuple[list[dict], float]:
        """``extract_bucket`` in-process, one core, over annotated detail
        pages; its rows are checked and their digest is the reference the
        Ray passes must reproduce."""
        with self.tracer.span("stages.extract_bucket") as sp:
            rows = X.extract_bucket(tbl).to_pylist()
        _require(C.check_detail_rows(rows, docs))
        self.record["inprocess_digest"] = C.item_digest(rows)
        return rows, sp["end"] - sp["start"]

    def _kernel_ledger(self, tbl: pa.Table, docs) -> dict:
        """The stage's one-core time, then the same call with the layer
        functions timed; the timed call must return the same items."""
        rows, extract_s = self._inprocess(tbl, docs)
        timers = LayerTimers(KERNEL_LAYERS)
        with self.tracer.span("stages.extract_bucket.layers"), timers:
            timed = X.extract_bucket(tbl).to_pylist()
        if C.item_digest(timed) != self.record["inprocess_digest"]:
            raise CheckFailed("timed in-process run changed the items")
        attempts = sum(r["attempts"] for r in rows)
        n_success = sum(r["status"] == "success" for r in rows)
        return {
            "kernels.htmlmini.parse_s": timers.busy["kernels.htmlmini"],
            "kernels.htmlmini.pages": timers.calls["kernels.htmlmini"],
            "kernels.htmlmini.mb_in": timers.bytes_in["kernels.htmlmini"] / 1e6,
            "extract.validators_s": timers.busy["extract.validators"],
            "extract.validators.rejects": timers.raised["extract.validators"],
            "extract.details.parse_s": timers.busy["extract.details"],
            "kernels.jsoncanon.dumps_s": timers.busy["kernels.jsoncanon"],
            "stages.extract_s": extract_s,
            "stages.pages_per_s_core": tbl.num_rows / extract_s,
            "stages.overhead_s": extract_s - sum(timers.busy.values()),
            "stages.attempts": attempts,
            "stages.pages_fetched": sum(r["pages_fetched"] for r in rows),
            "stages.success_per_attempt": n_success / attempts if attempts else 0.0,
        }

    def _search_ledger(self) -> dict:
        """``extract_search_batch`` in-process over every listing page."""
        tbl = annotate_batch(_read(_listing_files(self.pages_dir)), 8)
        tbl = tbl.filter(pc.equal(tbl.column("kind"), "search"))
        with self.tracer.span("stages.extract_search_batch"):
            t0 = time.perf_counter()
            rows = extract_search_batch(tbl)
            search_s = time.perf_counter() - t0
        want = sum(len(C.search_ids(self.n_docs, c)) for c in C.CONTEXTS)
        if rows.num_rows != want:
            raise CheckFailed(f"search stage: {rows.num_rows} rows, want {want}")
        return {"stages.search_s": search_s, "stages.search_rows": rows.num_rows}

    def _annotated_details(self) -> pa.Table:
        with self.tracer.span("sources.annotate_batch"):
            return filter_detail_batch(annotate_batch(_read(_detail_files(self.pages_dir))))


class DetailsWorkload(Workload):
    """``run_details_extraction`` in its default clustered mode, then
    ``materialize()``, over every detail page of the corpus."""

    def __init__(self, *args):
        super().__init__(*args)
        self.digests: list[str] = []
        self.traced: list[dict] = []

    @property
    def pages_per_pass(self) -> int:
        return self.shape["detail_pages"]

    def _extract(self, traced: bool) -> float:
        stats: dict = {}
        if traced:
            with self.tracer.span("pipelines.details.run_details_extraction") as sp:
                ds = run_details_extraction(self.pages_dir, stats_out=stats).materialize()
                with self.tracer.span("ray.stats_summary"):
                    op_stats = ray_op_summary(ds)
            wall = sp["end"] - sp["start"]
            self.traced.append(dict(wall=wall, stats=stats, ops=op_stats))
        else:
            t0 = time.perf_counter()
            ds = run_details_extraction(self.pages_dir, stats_out=stats).materialize()
            wall = time.perf_counter() - t0
        self.record.update(path=stats.get("path"), n_conflicts=stats.get("n_conflicts"))
        rows = ds.to_pandas().to_dict("records")
        self.digests.append(C.item_digest(rows))
        _require(C.check_detail_rows(rows, range(self.n_docs)))
        return wall

    def warm_up(self) -> float:
        t0 = time.perf_counter()
        self.ops.run("details.warm_up", self._extract, False)
        return time.perf_counter() - t0

    def run_pass(self) -> float | None:
        return self.ops.run("details.pass", self._extract, False)

    def traced_pass(self) -> float | None:
        return self.ops.run("details.traced_pass", self._extract, True)

    def _check_digests(self) -> None:
        ref = self.record.get("inprocess_digest")
        bad = [d for d in self.digests if d != ref]
        self.record["digest"] = ref
        if bad:
            raise CheckFailed(f"{len(bad)} of {len(self.digests)} passes differ from the "
                              "in-process stage run")

    def verify(self) -> None:
        """Untraced run: the in-process stage run is the digest reference."""
        tbl = self._annotated_details()
        self.ops.run("stages.extract_bucket", self._inprocess, tbl, range(self.n_docs))
        self.ops.run("details.digest", self._check_digests)

    def _scan(self) -> dict:
        with self.tracer.span("sources.read_annotate_filter") as sp:
            ds = filter_detail_pages(annotate_pages(read_pages(self.pages_dir, kinds=DETAIL_KINDS)))
            ds = ds.materialize()
        rows = ds.count()
        if rows != self.shape["detail_pages"]:
            raise CheckFailed(f"scan: {rows} rows, want {self.shape['detail_pages']}")
        return {"sources.scan_s": sp["end"] - sp["start"], "sources.rows_out": rows}

    def _shuffled_pass(self) -> dict:
        """One pass over the same pages with rows permuted by the seed:
        entities straddle block interiors, so the conflict census and the
        redo through the keyed exchange do real work. Its items must
        match the in-process run like every other pass's."""
        pages_dir = os.path.join(self.work_dir, "pages-shuffled")
        C.write_corpus(pages_dir, self.n_docs, self.seed, shuffled=True)
        stats: dict = {}
        with self.tracer.span("pipelines.details.run_details_extraction",
                              layout="shuffled") as sp:
            ds = run_details_extraction(pages_dir, stats_out=stats).materialize()
        rows = ds.to_pandas().to_dict("records")
        self.digests.append(C.item_digest(rows))
        _require(C.check_detail_rows(rows, range(self.n_docs)))
        self.record["shuffled_path"] = stats.get("path")
        return {"pipelines.details.shuffled_wall_s": sp["end"] - sp["start"],
                "pipelines.details.shuffled_conflicts": stats.get("n_conflicts", 0)}

    def ledger(self, untraced_walls: list[float]) -> dict:
        out = {}
        out.update(self.ops.run("sources.scan", self._scan) or {})
        out.update(self.ops.run("details.shuffled_pass", self._shuffled_pass) or {})
        tbl = self._annotated_details()
        out.update(self.ops.run("stages.extract_bucket", self._kernel_ledger, tbl,
                                range(self.n_docs)) or {})
        out.update(self.ops.run("stages.search", self._search_ledger) or {})
        self.ops.run("details.digest", self._check_digests)
        if self.traced:
            wall = _median([t["wall"] for t in self.traced])
            out["pipelines.details.n_conflicts"] = _median(
                [t["stats"].get("n_conflicts", 0) for t in self.traced])
            if all("wall_time" in t["ops"] for t in self.traced):
                op_s = _median([t["ops"]["wall_time"] for t in self.traced])
                out["pipelines.details.ray_op_s"] = op_s
                out["pipelines.details.unattributed_s"] = _median(
                    [t["wall"] - t["ops"]["wall_time"] for t in self.traced])
            if all("bytes_spilled" in t["ops"] for t in self.traced):
                out["pipelines.details.spilled_mb"] = _median(
                    [t["ops"]["bytes_spilled"] for t in self.traced]) / 1e6
            if untraced_walls:
                out["trace.overhead_s"] = wall - _median(untraced_walls)
        if untraced_walls and "stages.extract_s" in out:
            out["pipelines.details.ray_overhead_s"] = (
                _median(untraced_walls) - out["stages.extract_s"])
        return out


class CrawlCycleWorkload(Workload):
    """One cron day, ``run_daily_cycle`` on the pandas backend, from a
    fresh copy of a store snapshot made by a full day-1 crawl."""

    def __init__(self, *args):
        super().__init__(*args)
        self.snapshot = os.path.join(self.work_dir, "store-day1")
        self.pages_per_pass = 0
        self.traced: list[dict] = []
        self._day = 0

    # -- oracle ---------------------------------------------------------------
    def _check_search(self, context: str, manifest: dict) -> list[str]:
        ids = C.search_ids(self.n_docs, context)
        want = dict(items=len(ids),
                    reported_totals=[len(C.context_doc_ids(self.n_docs, context))],
                    duplicate_ids=C.expected_duplicates(self.n_docs, context))
        return [f"search {context}: {k}={manifest.get(k)!r}, want {v!r}"
                for k, v in want.items() if manifest.get(k) != v]

    def _check_details(self, context: str, result: dict, budget: int | None) -> list[str]:
        delta = result["delta"]
        errors = []
        if len(delta) != result["manifest"]["frontier_size"]:
            errors.append(f"details {context}: {len(delta)} rows for frontier "
                          f"{result['manifest']['frontier_size']}")
        if budget is not None and len(delta) > budget:
            errors.append(f"details {context}: {len(delta)} rows over budget {budget}")
        rows = delta.to_dict("records")
        errors += C.check_detail_rows(rows, [C.doc_of(int(r["id"])) for r in rows])
        return errors

    def _check_state(self, store: CrawlStore) -> list[str]:
        state = store.load_table("state", S.empty_state())
        got = state.groupby("context").size().to_dict()
        want = C.expected_state_keys(self.n_docs)
        return [] if got == want else [f"state keys {got}, want {want}"]

    def _pages_consumed(self, details_manifests: list[dict]) -> int:
        listing = sum(math.ceil(len(C.context_doc_ids(self.n_docs, c)) / G.SEARCH_PAGE_SIZE)
                      for c in C.CONTEXTS)
        fetched = sum(int(m["metrics"]["pages_fetched"]) for m in details_manifests)
        return 1 + listing + fetched

    # -- set-up: the day-1 snapshot --------------------------------------------
    def _day1(self) -> None:
        if os.path.exists(self.snapshot):
            shutil.rmtree(self.snapshot)
        store = CrawlStore(self.snapshot)
        dm = run_data_monitor(store, self.pages_dir)
        errors = []
        if dm["item"].get("project_count") != MONITOR_PROJECT_COUNT:
            errors.append(f"monitor project_count {dm['item'].get('project_count')}")
        for context, _ in DAILY_NEEDED_BUDGETS:
            errors += self._check_search(context, run_search(store, self.pages_dir, context)["manifest"])
            res = run_details(store, self.pages_dir, context, ids_spec="db:all:0",
                              host_lookup=C.host_lookup)
            errors += self._check_details(context, res, None)
            want = C.expected_state_keys(self.n_docs)[context]
            if len(res["delta"]) != want:
                errors.append(f"day-1 details {context}: {len(res['delta'])} rows, want {want}")
        errors += self._check_state(store)
        _require(errors)

    def warm_up(self) -> float:
        t0 = time.perf_counter()
        self.ops.run("crawl.day1", self._day1)
        return time.perf_counter() - t0

    # -- one cron day -----------------------------------------------------------
    def _fresh_store(self) -> tuple[str, CrawlStore]:
        self._day += 1
        path = os.path.join(self.work_dir, f"store-day2-{self._day}")
        shutil.copytree(self.snapshot, path)
        return path, CrawlStore(path)

    def _check_day(self, store: CrawlStore, monitor: dict, searches: dict, details: dict) -> int:
        errors = []
        if monitor["item"].get("project_count") != MONITOR_PROJECT_COUNT:
            errors.append(f"monitor project_count {monitor['item'].get('project_count')}")
        for context, budget in DAILY_NEEDED_BUDGETS:
            errors += self._check_search(context, searches[context]["manifest"])
            errors += self._check_details(context, details[context], budget)
        errors += self._check_state(store)
        _require(errors)
        return self._pages_consumed([d["manifest"] for d in details.values()])

    def _cycle(self) -> float:
        path, store = self._fresh_store()
        try:
            t0 = time.perf_counter()
            out = run_daily_cycle(store, self.pages_dir, day_of_month=None,
                                  host_lookup=C.host_lookup)
            wall = time.perf_counter() - t0
            contexts = [c for c, _ in DAILY_NEEDED_BUDGETS]
            self.pages_per_pass = self._check_day(
                store, out["data_monitor"],
                {c: out[f"search_{c}"] for c in contexts},
                {c: out[f"details_{c}"] for c in contexts})
            return wall
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def _traced_cycle(self) -> float:
        """The same day driven step by step, one span per run call."""
        path, store = self._fresh_store()
        try:
            searches, details = {}, {}
            with self.tracer.span("pipelines.schedule.day") as day:
                with self.tracer.span("pipelines.runs.run_data_monitor"):
                    monitor = run_data_monitor(store, self.pages_dir)
                for context, budget in DAILY_NEEDED_BUDGETS:
                    with self.tracer.span("pipelines.runs.run_search", context=context):
                        searches[context] = run_search(store, self.pages_dir, context)
                    with self.tracer.span("pipelines.runs.run_details", context=context):
                        details[context] = run_details(
                            store, self.pages_dir, context,
                            ids_spec=f"db:needed:{budget}", host_lookup=C.host_lookup)
            self.pages_per_pass = self._check_day(store, monitor, searches, details)
            self.traced.append(dict(wall=day["end"] - day["start"], searches=searches,
                                    details=details, store_mb=_dir_mb(path),
                                    steps=self.tracer.child_totals(day)))
            return day["end"] - day["start"]
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def run_pass(self) -> float | None:
        return self.ops.run("crawl.cycle", self._cycle)

    def traced_pass(self) -> float | None:
        return self.ops.run("crawl.traced_cycle", self._traced_cycle)

    # -- per-layer ledger ---------------------------------------------------------
    def _replay_state(self, day: dict) -> dict:
        """Replay the traced day's state transitions (J1-J8) in-process on
        the day-1 snapshot, timing each ``frontier.state`` group and the
        ``CrawlStore`` load/save; the replayed state must match the
        day's own."""
        t = dict(j1=0.0, upsert=0.0, history=0.0, post=0.0)

        def timed(key, fn, *args):
            t0 = time.perf_counter()
            out = fn(*args)
            t[key] += time.perf_counter() - t0
            return out

        store = CrawlStore(self.snapshot)
        with self.tracer.span("frontier.manifests.load") as load:
            state = store.load_table("state", S.empty_state())
            runs = store.load_table("runs", S.empty_runs())
            history = store.load_table("history", S.empty_history())
        now = "2024-06-01T00:00:00+00:00"
        with self.tracer.span("frontier.state.replay"):
            for context, budget in DAILY_NEEDED_BUDGETS:
                runs, run_id = S.store_run(runs, "search_results", context, now)
                obs = [(int(r.id), r.item) for r in day["searches"][context]["items"].itertuples()]
                state = timed("upsert", S.upsert_from_search, state, obs, context, run_id)
                state = timed("upsert", S.mark_not_found, state, context, run_id)
                runs = S.update_run_result(runs, run_id, now, len(obs))

                runs, run_id = S.store_run(runs, "details", context, now)
                ids = timed("j1", S.get_ids, state, runs, context, True, budget)
                delta = day["details"][context]["delta"]
                if ids != [int(i) for i in day["details"][context]["frontier"]["id"]]:
                    raise CheckFailed(f"replayed J1 frontier for {context} differs")
                state = timed("upsert", S.upsert_from_details, state, list(delta["id"]),
                              context, run_id)
                rows = [dict(id=int(r.id), context=context, created_at=run_id,
                             item=r.item if r.status == "success" else None, status=r.status)
                        for r in delta.itertuples()]
                history = timed("history", S.insert_detail_items, history, runs, rows)
                t0 = time.perf_counter()
                if context == "projekt":
                    state = S.expand_person_frontier(state, history, run_id)
                else:
                    latest = S.latest_detail_items(history, runs)
                    refs = (S.person_projekt_references(latest) if context == "person"
                            else S.institution_projekt_references(latest))
                    state = S.mark_projekts_for_moved(state, history, run_id, context, refs)
                    if context == "institution":
                        hierarchy = S.institution_hierarchy(S.latest_items(latest, state))
                        state = S.mark_roots_for_moved_subinstitutions(
                            state, history, run_id, hierarchy)
                t["post"] += time.perf_counter() - t0
                runs = S.update_run_result(runs, run_id, now, int((delta["status"] == "success").sum()))
        got = state.groupby("context").size().to_dict()
        if got != C.expected_state_keys(self.n_docs):
            raise CheckFailed(f"replayed state keys {got}")
        out_store = CrawlStore(os.path.join(self.work_dir, "store-replay"))
        with self.tracer.span("frontier.manifests.save") as save:
            out_store.save_table("state", state)
            out_store.save_table("runs", runs)
            out_store.save_table("history", history)
        shutil.rmtree(out_store.root, ignore_errors=True)
        return {
            "frontier.state.j1_s": t["j1"],
            "frontier.state.upsert_s": t["upsert"],
            "frontier.state.history_s": t["history"],
            "frontier.state.post_jobs_s": t["post"],
            "frontier.state.state_rows": len(state),
            "frontier.state.history_rows": len(history),
            "frontier.manifests.load_s": load["end"] - load["start"],
            "frontier.manifests.save_s": save["end"] - save["start"],
            "frontier.manifests.store_mb": day["store_mb"],
        }

    def _day_kernels(self, day: dict) -> dict:
        """The kernel ledger over the pages of the entities the day's
        details runs crawled."""
        keys = {(c, int(i)) for c, d in day["details"].items() for i in d["delta"]["id"]}
        tbl = self._annotated_details()
        mask = [(c, i) in keys for c, i in zip(tbl.column("context").to_pylist(),
                                                tbl.column("id").to_pylist())]
        tbl = tbl.filter(pa.array(mask, type=pa.bool_()))
        return self._kernel_ledger(tbl, sorted(C.doc_of(i) for _, i in keys))

    def ledger(self, untraced_walls: list[float]) -> dict:
        out = {}
        if not self.traced:
            return out
        day = self.traced[-1]

        def per_day(name):
            return _median([t["steps"].get(name, 0.0) for t in self.traced])

        out["pipelines.runs.monitor_s"] = per_day("pipelines.runs.run_data_monitor")
        out["pipelines.runs.search_s"] = per_day("pipelines.runs.run_search")
        out["pipelines.runs.details_s"] = per_day("pipelines.runs.run_details")
        out.update(self.ops.run("frontier.replay", self._replay_state, day) or {})
        out.update(self.ops.run("stages.extract_bucket", self._day_kernels, day) or {})
        out.update(self.ops.run("stages.search", self._search_ledger) or {})
        if untraced_walls:
            out["trace.overhead_s"] = (_median([t["wall"] for t in self.traced])
                                       - _median(untraced_walls))
        return out


WORKLOADS = {
    "details_clustered": DetailsWorkload,
    "crawl_cycle": CrawlCycleWorkload,
}
