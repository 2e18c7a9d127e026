"""Sharded URL-seen filter — actor-pool state for frontier dedup.

The reference's URL-seen state is an exact in-process set
(spiders/search_results.py:26) plus the ``available_items`` table.
At 10^10-URL scale the seen-set no longer fits one process, so we
shard it across K actors routed by a stable hash of the canonical key
(``hash(key) % K``); each shard holds either

- an exact Python set (test scale / correctness oracle), or
- a Bloom bit-array (numpy, k hashes) — 10^10 keys at 10 bits/key ≈
  12.5 GB total, i.e. ~49 MB per shard on a 256-shard cluster, with a
  documented false-positive rate (~0.9% at k=3), or
- a Cuckoo filter (Fan et al., CoNEXT 2014: 4-slot buckets of 16-bit
  fingerprints, partner bucket via xor of the fingerprint hash,
  bounded eviction chains) — same order of memory as Bloom at ~0.01%
  FP, and it supports DELETION, which Bloom cannot: a recrawl that
  retires URLs (moved/purged entities) removes them from the filter
  instead of tombstoning a side table.

The exact Parquet state table remains the source of truth; the filter
is the fast streaming membership test (SURVEY.md §2.6 note). Batch
APIs only — one actor round-trip per (shard × batch), never per key.
"""

from __future__ import annotations

import numpy as np
import ray

from ..kernels.hashing import stable_hash64_array


def shard_cpus(num_shards: int) -> float:
    """The CPU request of each of ``num_shards`` shard actors: at most a
    quarter CPU, and all of them together at most the cluster's CPUs
    less one, so the pool never holds the CPU that the Dataset tasks
    calling it need (on a one-CPU Ray the shards ask for none)."""
    cpus = ray.cluster_resources().get("CPU", 1.0) if ray.is_initialized() else 1.0
    return min(0.25, max(0.0, cpus - 1.0) / num_shards)


@ray.remote(num_cpus=0.25)
class SeenShard:
    """One shard of the seen-filter. Keys arrive pre-hashed (uint64)."""

    def __init__(
        self,
        mode: str = "exact",
        bloom_bits: int = 1 << 24,
        bloom_hashes: int = 3,
        cuckoo_buckets: int = 1 << 16,
        cuckoo_slots: int = 4,
        max_kicks: int = 500,
    ):
        self.mode = mode
        if mode == "exact":
            self.keys: set[int] = set()
        elif mode == "bloom":
            self.bits = np.zeros(bloom_bits // 64 + 1, dtype=np.uint64)
            self.nbits = bloom_bits
            self.k = bloom_hashes
        elif mode == "cuckoo":
            if cuckoo_buckets & (cuckoo_buckets - 1):
                raise ValueError("cuckoo_buckets must be a power of two (xor partner)")
            self.table = np.zeros((cuckoo_buckets, cuckoo_slots), dtype=np.uint16)
            self.m = cuckoo_buckets
            self.max_kicks = max_kicks
            self.rng = np.random.default_rng(0x5EED)
            # victim slot (Fan et al. §4): when an eviction chain
            # exhausts max_kicks the displaced fingerprint parks here
            # instead of being dropped, preserving the no-false-negative
            # contract for every previously-added key even if the caller
            # catches the over-capacity error and continues.
            self.victim: tuple[int, int] | None = None  # (fp, bucket)
        else:
            raise ValueError(f"unknown seen-filter mode {mode!r}")

    @staticmethod
    def _remix(hashes: np.ndarray) -> np.ndarray:
        """Decorrelate from the facade's shard routing. SeenFilter
        routes a key to its shard by ``h % num_shards`` — the LOW bits
        of the same hash this shard would otherwise slice for bucket /
        bit positions. Deriving the cuckoo ``i1 = h & (m-1)`` from
        those bits restricts every shard to 1/K of its i1 buckets
        (measured: saturation at 0.82 load instead of the 0.97 an
        8-slot table reaches), and skews Bloom probe positions the
        same way. One splitmix64 pass (a bijection — no collision risk
        added) makes shard-internal positions independent of the
        routing bits."""
        from ..kernels.hashing import splitmix64

        return splitmix64(hashes)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        # Kirsch–Mitzenmacher double hashing from the two independent
        # 32-bit halves: pos_i = (h_hi + i*h_lo) mod nbits. A multiply-
        # chain re-mix of the full hash is a BIJECTION on the low bits,
        # which makes every position a function of pos_0 alone and the
        # k hashes add no information (measured 10x the theoretical FP
        # rate). Requires nbits < 2^32 per shard — shard more instead.
        hashes = self._remix(hashes)
        h1 = hashes >> np.uint64(32)
        h2 = (hashes & np.uint64(0xFFFFFFFF)) | np.uint64(1)
        out = np.empty((self.k, len(hashes)), dtype=np.uint64)
        for i in range(self.k):
            out[i] = (h1 + np.uint64(i) * h2) % np.uint64(self.nbits)
        return out

    # --- cuckoo internals (Fan et al. 2014) --------------------------------

    def _cuckoo_fp_idx(self, hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """fingerprint (16-bit, never 0) + the two candidate buckets.
        Partner bucket = i1 xor hash(fp), an involution: either index
        recovers the other from the stored fingerprint alone."""
        from ..kernels.hashing import splitmix64

        hashes = self._remix(hashes)
        fp = (hashes >> np.uint64(48)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)
        mask = np.uint64(self.m - 1)
        i1 = (hashes & mask).astype(np.int64)
        fp_h = (splitmix64(fp.astype(np.uint64)) & mask).astype(np.int64)
        i2 = i1 ^ fp_h
        return fp, i1, i2

    def _cuckoo_present(self, fp, i1, i2) -> np.ndarray:
        present = ((self.table[i1] == fp[:, None]).any(axis=1)) | (
            (self.table[i2] == fp[:, None]).any(axis=1)
        )
        if self.victim is not None:
            vfp, vidx = self.victim
            present |= (fp == np.uint16(vfp)) & ((i1 == vidx) | (i2 == vidx))
        return present

    def _cuckoo_insert_one(self, fp: int, i1: int, i2: int) -> None:
        from ..kernels.hashing import splitmix64

        if self.victim is not None:
            raise RuntimeError(
                "cuckoo filter over capacity (victim slot occupied) — "
                "grow cuckoo_buckets or shard wider"
            )
        for idx in (i1, i2):
            free = np.nonzero(self.table[idx] == 0)[0]
            if len(free):
                self.table[idx, free[0]] = fp
                return
        # eviction chain: kick a random resident to its partner bucket
        idx = int(i1 if self.rng.integers(2) else i2)
        cur = np.uint16(fp)
        mask = np.uint64(self.m - 1)
        for _ in range(self.max_kicks):
            slot = int(self.rng.integers(self.table.shape[1]))
            cur, self.table[idx, slot] = self.table[idx, slot], cur
            partner = idx ^ int(
                splitmix64(np.asarray([cur], dtype=np.uint64))[0] & mask
            )
            free = np.nonzero(self.table[partner] == 0)[0]
            if len(free):
                self.table[partner, free[0]] = cur
                return
            idx = partner
        # chain exhausted with `cur` (a previously-resident fingerprint)
        # in hand: park it in the victim slot BEFORE raising so no
        # earlier add() is forgotten (Fan et al.'s standard behaviour)
        self.victim = (int(cur), int(idx))
        raise RuntimeError(
            "cuckoo filter over capacity — grow cuckoo_buckets or shard wider"
        )

    def add(self, hashes: np.ndarray) -> np.ndarray:
        """Insert; returns bool array: True where the key was NEW.

        In-batch duplicates: only the FIRST occurrence can be novel
        (membership is evaluated against pre-insert state, so without
        the dedup every copy in the same batch would report new)."""
        uniq, first_idx = np.unique(hashes, return_index=True)
        if self.mode == "exact":
            new_uniq = np.fromiter(
                (h not in self.keys for h in uniq.tolist()), dtype=bool, count=len(uniq)
            )
            self.keys.update(uniq.tolist())
        elif self.mode == "cuckoo":
            fp, i1, i2 = self._cuckoo_fp_idx(uniq)
            present = self._cuckoo_present(fp, i1, i2)  # vectorized probe
            for j in np.nonzero(~present)[0]:  # sequential inserts (evictions)
                self._cuckoo_insert_one(int(fp[j]), int(i1[j]), int(i2[j]))
            new_uniq = ~present
        else:
            pos = self._positions(uniq)
            word, bit = pos // np.uint64(64), pos % np.uint64(64)
            present = np.ones(len(uniq), dtype=bool)
            for i in range(self.k):
                present &= (self.bits[word[i]] >> bit[i]) & np.uint64(1) == 1
                # ufunc.at handles duplicate word indices (|= would drop them)
                np.bitwise_or.at(self.bits, word[i], np.uint64(1) << bit[i])
            new_uniq = ~present
        out = np.zeros(len(hashes), dtype=bool)
        out[first_idx] = new_uniq
        return out

    def contains(self, hashes: np.ndarray) -> np.ndarray:
        if self.mode == "exact":
            return np.fromiter(
                (h in self.keys for h in hashes.tolist()), dtype=bool, count=len(hashes)
            )
        if self.mode == "cuckoo":
            fp, i1, i2 = self._cuckoo_fp_idx(hashes)
            return self._cuckoo_present(fp, i1, i2)
        pos = self._positions(hashes)
        word, bit = pos // np.uint64(64), pos % np.uint64(64)
        present = np.ones(len(hashes), dtype=bool)
        for i in range(self.k):
            present &= (self.bits[word[i]] >> bit[i]) & np.uint64(1) == 1
        return present

    def delete(self, hashes: np.ndarray) -> np.ndarray:
        """Remove keys (cuckoo/exact only — THE capability Bloom lacks;
        reference analogue: retiring moved/purged entities from the
        recrawl frontier). Returns True where a matching entry was
        removed. Only delete keys that were actually inserted — cuckoo
        deletion of a never-inserted key can evict a fingerprint twin."""
        if self.mode == "exact":
            out = np.fromiter(
                (h in self.keys for h in hashes.tolist()), dtype=bool, count=len(hashes)
            )
            self.keys.difference_update(hashes.tolist())
            return out
        if self.mode != "cuckoo":
            raise ValueError("delete() requires an exact or cuckoo filter")
        fp, i1, i2 = self._cuckoo_fp_idx(hashes)
        out = np.zeros(len(hashes), dtype=bool)
        for j in range(len(hashes)):
            if (
                self.victim is not None
                and int(fp[j]) == self.victim[0]
                and self.victim[1] in (int(i1[j]), int(i2[j]))
            ):
                self.victim = None
                out[j] = True
                continue
            for idx in (int(i1[j]), int(i2[j])):
                slots = np.nonzero(self.table[idx] == fp[j])[0]
                if len(slots):
                    self.table[idx, slots[0]] = 0
                    out[j] = True
                    break
        return out

    def size(self) -> int:
        if self.mode == "exact":
            return len(self.keys)
        if self.mode == "cuckoo":
            return int((self.table != 0).sum()) + (self.victim is not None)
        return int(-1)


class SeenFilter:
    """Driver/worker facade over the shard pool.

    Route each key batch to its shard by ``hash % num_shards``; all
    shard calls run concurrently (one round-trip per shard per batch).
    """

    def __init__(self, num_shards: int = 8, mode: str = "exact", **shard_kwargs):
        self.num_shards = num_shards
        shard = SeenShard.options(num_cpus=shard_cpus(num_shards))
        self.shards = [shard.remote(mode=mode, **shard_kwargs) for _ in range(num_shards)]

    def _scatter_gather(self, method: str, hashes: np.ndarray) -> np.ndarray:
        shard_ids = (hashes % np.uint64(self.num_shards)).astype(np.int64)
        result = np.zeros(len(hashes), dtype=bool)
        futures, positions = [], []
        for s in range(self.num_shards):
            idx = np.nonzero(shard_ids == s)[0]
            if len(idx):
                futures.append(getattr(self.shards[s], method).remote(hashes[idx]))
                positions.append(idx)
        for out, idx in zip(ray.get(futures), positions):
            result[idx] = out
        return result

    def add(self, keys: list[str]) -> np.ndarray:
        """Mark seen; True where newly added (dedup-pass filter)."""
        return self._scatter_gather("add", stable_hash64_array(keys))

    def contains(self, keys: list[str]) -> np.ndarray:
        return self._scatter_gather("contains", stable_hash64_array(keys))

    def delete(self, keys: list[str]) -> np.ndarray:
        """Retire keys from the filter (exact / cuckoo modes)."""
        return self._scatter_gather("delete", stable_hash64_array(keys))

    def add_hashed(self, hashes: np.ndarray) -> np.ndarray:
        """``add`` over pre-hashed uint64 keys — the hot-path variant:
        callers with numeric canonical keys hash them VECTORIZED (e.g.
        ``splitmix64(id*8 + context_code)``, a bijection → zero
        collision risk) instead of per-key byte hashing."""
        return self._scatter_gather("add", np.ascontiguousarray(hashes, dtype=np.uint64))

    def contains_hashed(self, hashes: np.ndarray) -> np.ndarray:
        return self._scatter_gather("contains", np.ascontiguousarray(hashes, dtype=np.uint64))


def unique_entities_by_context(
    pages_dir: str, num_shards: int = 8, mode: str = "exact"
) -> "ray.data.Dataset":
    """Stream every detail page's canonical key through the sharded
    seen-filter actors; per context, count the keys seen for the first
    time — the streaming frontier-dedup path (ST1 at actor scale).

    Order-insensitive by construction (each key is novel exactly once
    across all concurrent batches), so the result is deterministic even
    though Ray Data's batch order is not. In exact mode it equals
    ``count(distinct entity)``; bloom mode trades a documented false-
    positive rate for 10 bits/key."""
    import pyarrow as pa

    import ray.data
    from ray.data.aggregate import Sum

    from ..sources.pages import DETAIL_KINDS, annotate_pages, filter_detail_pages, read_pages

    from ..kernels.hashing import splitmix64

    filt = SeenFilter(num_shards=num_shards, mode=mode)
    ctx_code = {"projekt": 0, "person": 1, "institution": 2}

    def mark_novel(batch: pa.Table) -> pa.Table:
        contexts = batch.column("context").to_pylist()
        ids = batch.column("id").to_numpy(zero_copy_only=False).astype(np.uint64)
        codes = np.fromiter(
            (ctx_code.get(c, 7) for c in contexts), dtype=np.uint64, count=len(contexts)
        )
        # bijective numeric key hash — vectorized, zero collisions
        hashes = splitmix64(ids * np.uint64(8) + codes)
        novel = filt.add_hashed(hashes)
        # pre-combine: one partial row per context per batch, so the
        # final exchange carries ~batches×3 rows, not one per page
        partial: dict[str, int] = {}
        for c, n in zip(contexts, novel):
            if n:
                partial[c] = partial.get(c, 0) + 1
        return pa.table(
            {
                "context": pa.array(list(partial), type=pa.string()),
                "novel": pa.array(list(partial.values()), type=pa.int64()),
            }
        )

    # note: a url-only column read measures SLOWER here than the default
    # (tiny per-file column chunks → per-task overhead dominates), so
    # keep the default columns and prune at the file level only
    ds = filter_detail_pages(annotate_pages(read_pages(pages_dir, kinds=DETAIL_KINDS)))
    per_page = ds.map_batches(mark_novel, batch_format="pyarrow", zero_copy_batch=True)
    return per_page.groupby("context").aggregate(Sum("novel", alias_name="unique_entities"))
