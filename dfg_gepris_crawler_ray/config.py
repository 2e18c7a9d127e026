"""User-extension surface (SURVEY.md §2.12).

The reference exposes: Scrapy settings overrides (``-s KEY=VAL``),
spider args, middleware/pipeline priority dicts, ItemLoader processor
declarations, the ATTRIBUTES_MAP dictionaries, and a custom cache
policy class. This engine's equivalents:

- :class:`CrawlerConfig` — one dataclass for every tunable the
  reference spreads over settings.py that this engine reads
  (politeness, proxy passthrough S10, shuffle backend).
- :class:`StageRegistry` — named ``map_batches`` stages; a pipeline is
  a declared sequence of stage names, so users insert/replace stages
  the way the reference re-prioritises SPIDER_MIDDLEWARES
  (settings.py:97-115).
- attribute maps are plain dicts (``normalise/attribute_maps.py``):
  accepting a new GEPRIS field = adding one entry, exactly the
  reference's extension point (project_attributes.py:123-218).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CrawlerConfig:
    """settings.py equivalents, one place.

    ===============================  ====================================
    this field                       reference setting
    ===============================  ====================================
    min_delay_ms                     AUTOTHROTTLE_START_DELAY analogue
                                     (settings.py:119-126; 0 = bench mode)
    obey_robots + robots             ROBOTSTXT_OBEY (settings.py:66)
    proxy_list                       rotating proxies S10
                                     (proxylist.py:5-8; passthrough — a
                                     table-backed fetch needs no proxy)
    num_shards                       politeness gate shards (no reference
                                     analogue; single-process there)
    ===============================  ====================================

    Not settings: the semantic retry budget (RETRY_TIMES,
    middlewares.py:20-66) is ``stages.extract_stage.MAX_ATTEMPTS``; the
    cron daily budget (docker/scheduler_cronfile:19-33) is the
    ``max_per_host`` argument of the details runs.
    """

    min_delay_ms: float = 0.0
    obey_robots: bool = True
    robots: dict[str, str] = field(default_factory=dict)
    proxy_list: list[str] = field(default_factory=list)
    num_shards: int = 8
    #: Ray Data shuffle backend for every keyed exchange (groupby /
    #: repartition). None = Ray's default (sort, pull-based). On a real
    #: multi-node cluster "hash_shuffle" avoids the full sort and keeps
    #: reducers pinned; it is NOT the default because Ray 2.49's hash
    #: shuffle can hang under address="local" (BASELINE.md note) — the
    #: flag exists so a cluster deployment switches strategies with a
    #: config change, zero code changes.
    shuffle_strategy: str | None = None  # None | "hash_shuffle" |
    # "sort_shuffle_pull_based" | "sort_shuffle_push_based"

    def make_politeness(self):
        """Build the run-time gate this config describes (None when
        nothing to enforce — zero actor overhead)."""
        if self.min_delay_ms <= 0 and not (self.obey_robots and self.robots):
            return None
        from .frontier.politeness import PolitenessGate

        return PolitenessGate(
            num_shards=max(2, self.num_shards // 2),
            min_delay_ms=self.min_delay_ms,
            robots=self.robots if self.obey_robots else {},
        )

    def apply_shuffle_strategy(self) -> str:
        """Install ``shuffle_strategy`` on the ambient
        :class:`ray.data.context.DataContext` so every keyed exchange
        (groupby / map_groups / aggregate / repartition) in pipelines
        built afterwards uses it. Returns the strategy now in effect.

        DataContext is per-driver ambient state — setting it once here
        covers all exchanges without threading a parameter through
        every operator, the same way the reference's settings.py
        globally configures Scrapy's scheduler.
        """
        from ray.data.context import DataContext, ShuffleStrategy

        ctx = DataContext.get_current()
        if self.shuffle_strategy is not None:
            valid = {
                "hash_shuffle": ShuffleStrategy.HASH_SHUFFLE,
                "sort_shuffle_pull_based": ShuffleStrategy.SORT_SHUFFLE_PULL_BASED,
                "sort_shuffle_push_based": ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED,
            }
            if self.shuffle_strategy not in valid:
                raise ValueError(
                    f"unknown shuffle_strategy {self.shuffle_strategy!r}; "
                    f"expected one of {sorted(valid)}"
                )
            ctx.shuffle_strategy = valid[self.shuffle_strategy]
        return str(ctx.shuffle_strategy)


class StageRegistry:
    """Named batch-transform stages, composable into pipelines.

    A stage is ``fn(pa.Table) -> pa.Table`` (or a class for actor
    pools). ``build(ds, names)`` applies them in order via
    ``map_batches`` — the declarative analogue of the reference's
    middleware priority dict.
    """

    def __init__(self):
        self._stages: dict[str, object] = {}

    def register(self, name: str, stage, **map_batches_kwargs):
        if name in self._stages:
            raise ValueError(f"stage {name!r} already registered")
        self._stages[name] = (stage, map_batches_kwargs)
        return stage

    def get(self, name: str):
        return self._stages[name][0]

    def names(self) -> list[str]:
        return sorted(self._stages)

    def build(self, ds, names: list[str]):
        for name in names:
            stage, kwargs = self._stages[name]
            kwargs = {"batch_format": "pyarrow", **kwargs}
            ds = ds.map_batches(stage, **kwargs)
        return ds


#: default registry with the engine's own stages pre-registered
def default_registry() -> StageRegistry:
    from .sources.pages import annotate_batch, filter_detail_batch
    from .stages.search_stage import extract_search_batch

    reg = StageRegistry()
    reg.register("annotate", annotate_batch, zero_copy_batch=True)
    reg.register("filter_details", filter_detail_batch, zero_copy_batch=True)
    reg.register("extract_search", extract_search_batch)
    return reg
