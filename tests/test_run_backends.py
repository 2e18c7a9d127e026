"""The two state backends of the one search / details run body
(pipelines.runs): identical manifests, and a pinned count of Dataset
executions per cron day."""

import pytest

from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore
from dfg_gepris_crawler_ray.pipelines.runs import run_details, run_search
from dfg_gepris_crawler_ray.pipelines.schedule import run_daily_cycle
from dfg_gepris_crawler_ray.testdata.gen_pages import ensure_pages
from test_runs_ds import SF  # the sf0.001 corpus the run tests share


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def test_manifest_parity_between_backends(tmp_path):
    """A search and a budgeted details run write the same manifest
    fields on both backends, with equal values wherever a field does
    not depend on where the state lives."""
    pages = ensure_pages(SF)
    # a literal id list is a budgeted frontier on both backends, in one
    # order (a db:*:N budget breaks J1 ties by insertion order on the
    # driver and by id on Datasets, so its picks may differ)
    ids = [1000 + d for d in range(0, 120, 3)]  # 40 projekts
    manifests = {}
    for backend in ("pandas", "ds"):
        store = CrawlStore(str(tmp_path / backend))
        search = run_search(store, pages, "projekt", backend=backend)
        details = run_details(store, pages, "projekt", ids_spec=ids, backend=backend)
        manifests[backend] = (search["manifest"], details["manifest"])

    (sa, da), (sb, db) = manifests["pandas"], manifests["ds"]
    assert sa.keys() == sb.keys()
    assert da.keys() == db.keys()
    # (the ds duplicate_ids is a first-64 sample; this listing has fewer)
    for k in ("items", "reported_totals", "duplicate_count", "duplicate_ids"):
        assert sa[k] == sb[k], k
    for k in ("frontier_size", "status_counts", "planned_order_hash", "frontier_resident"):
        assert da[k] == db[k], k
    assert da["frontier_size"] == 40 and da["planned_order_hash"] is not None
    # the driver backend hashes its delta; the Dataset backend would
    # have to collect it, so it writes null
    assert da["delta_hash"] and sa["delta_hash"]
    assert db["delta_hash"] is None and sb["delta_hash"] is None
    assert (sa["state_backend"], sb["state_backend"]) == ("pandas", "dataset")


def _count_executions(monkeypatch):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


@pytest.mark.parametrize("backend,day1,day2", [("pandas", 7, 5), ("ds", 57, 51)])
def test_daily_cycle_dataset_executions(tmp_path, monkeypatch, backend, day1, day2):
    """The pandas backend runs one Dataset execution per search, one per
    details run with a non-empty frontier and one for the monitor: 7 on
    day 1, 5 on day 2 (only the J8-flagged institutions come back). The
    Dataset backend stays within its measured 57 / 51."""
    pages = ensure_pages(SF)
    store = CrawlStore(str(tmp_path / backend))
    counts = []
    for _ in range(2):
        calls = _count_executions(monkeypatch)
        run_daily_cycle(store, pages, backend=backend)
        counts.append(len(calls))
        monkeypatch.undo()
    if backend == "pandas":
        assert counts == [day1, day2]
    else:
        assert counts[0] <= day1 and counts[1] <= day2, counts
