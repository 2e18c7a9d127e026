"""The two state backends of the one search / details run body
(pipelines.runs): identical manifests, a cron day's one listing pass
equal to standalone runs, and a pinned count of Dataset executions per
cron day."""

import os
import re

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from dfg_gepris_crawler_ray.frontier import state as S
from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore
from dfg_gepris_crawler_ray.pipelines.runs import run_data_monitor, run_details, run_search
from dfg_gepris_crawler_ray.pipelines.schedule import DAILY_NEEDED_BUDGETS, run_daily_cycle
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


@pytest.mark.parametrize("backend,day1,day2", [("pandas", 4, 2), ("ds", 43, 41)])
def test_daily_cycle_dataset_executions(tmp_path, monkeypatch, backend, day1, day2):
    """The pandas backend runs one listing pass for the monitor and all
    three searches, plus one Dataset execution per details run with a
    non-empty frontier: 4 on day 1, 2 on day 2 (only the J8-flagged
    institutions come back). The Dataset backend stays within its
    measured 43 / 41: the listing pass, one slice per search and the
    monitor, one execution for each search's ST1/ST2 checks, and per
    details run one state exchange (J3, with J5 on the projekt run) and
    one tally execution."""
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


def test_ds_daily_cycle_finishes_at_one_cpu(tmp_path):
    """Two fresh ``ds`` cron days complete under a one-CPU Ray: every
    state transition is an exchange, and a plan that needs a second
    CPU would stall there and not at the test session's 4 CPUs. The
    days run in a subprocess with its own Ray, under a timeout, and
    save the same state as two pandas days. Neither day logs a
    block-size error (Ray fails to size an empty pandas block with a
    string column; day 2's empty person and projekt frontiers hand the
    run body an empty delta), a state block whose dtypes differ from
    another's, or a tally bundle without the status schema."""
    import subprocess
    import sys
    import textwrap

    pages = ensure_pages(SF)
    root = str(tmp_path / "ds")
    code = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r})
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
        from dfg_gepris_crawler_ray.frontier.manifests import CrawlStore
        from dfg_gepris_crawler_ray.pipelines.schedule import run_daily_cycle
        for day in (1, 2):
            print(f"=== day {{day}}", file=sys.stderr, flush=True)
            run_daily_cycle(CrawlStore({root!r}), {pages!r}, backend="ds")
        ray.shutdown()
        """
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    days = out.stderr.split("=== day ")[1:]
    assert len(days) == 2
    for log in days:
        # no state transition emits an empty block that Ray cannot size
        assert "on size 0 inputs" not in log, log[:1]
        # state blocks agree on their dtypes: no pandas block schema
        # differs from its predecessor's, and no reduce concatenates
        # object columns with float64 ones
        assert not re.search(r"different schema.*new schema: PandasBlockSchema", log), log[:1]
        assert not re.search(r"\(reduce pid=\d+\).*FutureWarning", log), log[:1]
        # the tally's partials all carry the status schema
        assert "Previous schema: status" not in log, log[:1]
    pandas_store = CrawlStore(str(tmp_path / "pandas"))
    for _ in range(2):
        run_daily_cycle(pandas_store, pages, backend="pandas")
    got = _sorted_state(CrawlStore(root), "ds")
    want = _sorted_state(pandas_store, "pandas")
    assert len(got) == len(want) > 0
    assert got[["context", "id"]].values.tolist() == want[["context", "id"]].values.tolist()


def _sorted_state(store: CrawlStore, backend: str) -> pd.DataFrame:
    if backend == "ds":
        state = store.load_table_ds("state", S.empty_state()).to_pandas()
    else:
        state = store.load_table("state", S.empty_state())
    state = state[S.STATE_COLUMNS]
    return state.sort_values(["context", "id"]).reset_index(drop=True)


@pytest.mark.parametrize("backend", ["pandas", "ds"])
def test_daily_cycle_equals_standalone_runs(tmp_path, backend):
    """The cron day's one listing pass gives the monitor and every
    search run what their standalone scans give them: equal search
    manifests, a byte-equal monitor item, and equal saved tables."""
    pages = ensure_pages(SF)
    fused = CrawlStore(str(tmp_path / "fused"))
    day = run_daily_cycle(fused, pages, backend=backend)

    alone = CrawlStore(str(tmp_path / "alone"))
    monitor = run_data_monitor(alone, pages)
    searches = {}
    for context, budget in DAILY_NEEDED_BUDGETS:
        searches[context] = run_search(alone, pages, context, backend=backend)
        run_details(alone, pages, context, ids_spec=f"db:needed:{budget}", backend=backend)

    assert day["data_monitor"]["monitor_json"] == monitor["monitor_json"]
    for context, search in searches.items():
        got, want = day[f"search_{context}"]["manifest"], search["manifest"]
        for k in ("items", "reported_totals", "duplicate_ids", "duplicate_count", "delta_hash"):
            assert got[k] == want[k], (context, k)
    pd.testing.assert_frame_equal(_sorted_state(fused, backend), _sorted_state(alone, backend))
    dm = [s.load_table("data_monitor", pd.DataFrame()).drop(columns="run_ended_at")
          for s in (fused, alone)]
    pd.testing.assert_frame_equal(*dm)


def test_daily_cycle_without_monitor_page_opens_no_run(tmp_path):
    """A corpus without the data-monitor page fails the day before any
    run is opened: the runs ledger stays empty."""
    pages = ensure_pages(SF)
    corpus = tmp_path / "pages"
    corpus.mkdir()
    for name in sorted(os.listdir(pages)):
        if name.endswith(".parquet"):
            t = pq.read_table(os.path.join(pages, name))
            keep = pc.invert(pc.ends_with(t.column("url"), "task=showMonitor"))
            pq.write_table(t.filter(keep), str(corpus / name))
    store = CrawlStore(str(tmp_path / "store"))
    with pytest.raises(ValueError, match="no data-monitor page in corpus"):
        run_daily_cycle(store, str(corpus))
    assert len(store.load_table("runs", S.empty_runs())) == 0
