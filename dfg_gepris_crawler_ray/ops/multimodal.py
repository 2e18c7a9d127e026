"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio decode libraries are not available in this container, so
the decode kernel itself is STUBBED (``decode_media`` raises
``NotImplementedError`` unless the deterministic fake decoder is
selected) — but the Ray-side plumbing is real and tested: schema with a
``binary`` payload column, actor-pool ``map_batches`` with small
batches (large rows!), per-actor decoder setup in ``__init__``, and a
typed feature output layout.

The synthetic payload is a deterministic function of ``doc_id``
(length ``100 + doc_id % 50`` bytes of a repeating pattern) so feature
outputs are SQL-oracle-checkable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data

MEDIA_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("media", pa.binary()),
        ("media_format", pa.string()),
        ("media_bytes", pa.int64()),
    ]
)

_FORMATS = ("png", "jpeg", "wav")


def synth_payload(doc_id: int) -> bytes:
    """Deterministic fake payload: length = 100 + doc_id % 50."""
    n = 100 + doc_id % 50
    return (doc_id % 251).to_bytes(1, "big") * n


def attach_media_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_pylist()
    payloads = [synth_payload(d) for d in doc_ids]
    fmts = [_FORMATS[d % 3] for d in doc_ids]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "media": pa.array(payloads, type=pa.binary()),
            "media_format": pa.array(fmts),
            "media_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
        }
    )


def media_table(sf_dir: str) -> "ray.data.Dataset":
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(attach_media_batch, batch_format="pyarrow", zero_copy_batch=True)


def decode_media(payload: bytes, fmt: str):
    """The real decode kernel — NOT IMPLEMENTED in this container.

    In production this would be PIL/libvips/ffmpeg; here it exists to
    pin the interface. Use ``decoder='fake'`` for the deterministic
    test decoder, or ``decoder='pil'`` (the optional-extras route,
    :func:`decode_media_pil`) when Pillow is installed.
    """
    raise NotImplementedError(
        "media decoding requires image/audio libraries not present in this "
        "environment; use MediaFeatureExtractor(decoder='fake')"
    )


def _pil_image_module():
    """Pillow's Image module, or None — the extras import gate."""
    try:  # pragma: no cover - environment-dependent
        from PIL import Image  # type: ignore

        return Image
    except ImportError:
        return None


def decode_media_pil(payload: bytes, fmt: str) -> np.ndarray:
    """Real image decode through Pillow (optional extra): bytes →
    grayscale float64 matrix, the input contract of ``phash64`` and
    the feature kernels. Raises NotImplementedError when Pillow is
    absent, so callers degrade exactly like the ``'real'`` stub."""
    image_mod = _pil_image_module()
    if image_mod is None:
        raise NotImplementedError(
            "decoder='pil' requires Pillow, which is not installed; "
            "use decoder='fake'"
        )
    import io

    with image_mod.open(io.BytesIO(payload)) as im:  # pragma: no cover
        return np.asarray(im.convert("L"), dtype=np.float64)


class MediaFeatureExtractor:
    """Actor-pool stage: decode → feature-extract binary payloads.

    ``__init__`` runs once per actor (decoder/model setup); ``__call__``
    per batch. Batches must stay small because rows are large — pass
    ``batch_size≈256`` and let block splitting handle the rest.
    """

    def __init__(self, decoder: str = "fake", feature_dim: int = 8):
        if decoder not in ("fake", "real", "pil"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.feature_dim = feature_dim

    def _decode(self, payload: bytes, fmt: str) -> np.ndarray:
        if self.decoder == "real":
            return decode_media(payload, fmt)  # pragma: no cover - stub
        if self.decoder == "pil":
            # real decode (optional extra): grayscale → area-mean to a
            # (dim × dim) grid → per-column means, [0,1] — the same
            # fixed-dim float-vector contract as the fake route
            img = decode_media_pil(payload, fmt)
            grid = area_resize(img, self.feature_dim)
            return grid.mean(axis=0) / 255.0
        # deterministic fake decode: digest → fixed-dim float vector
        digest = hashlib.blake2b(payload, digest_size=self.feature_dim).digest()
        return np.frombuffer(digest, dtype=np.uint8).astype(np.float64) / 255.0

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("media").to_pylist()
        fmts = batch.column("media_format").to_pylist()
        feats = [self._decode(p, f) for p, f in zip(payloads, fmts)]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "media_bytes": pa.array([len(p) for p in payloads], type=pa.int64()),
                "feature": pa.array([f.tolist() for f in feats], type=pa.list_(pa.float64())),
            }
        )


def media_features(sf_dir: str, concurrency: int = 2) -> "ray.data.Dataset":
    """media table → actor-pool decode/feature stage (small batches)."""
    return media_table(sf_dir).map_batches(
        MediaFeatureExtractor,
        fn_constructor_kwargs={"decoder": "fake"},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )


class MediaResizer:
    """Actor-pool resize stage (images): decode → aspect-preserving
    downscale to ``max_side`` → re-encode. The pixel kernel is stubbed
    behind the fake decoder (no image libs here); the geometry is
    integer-exact so the stage is SQL-oracle-checkable.

    Fake image geometry: width = payload length, height =
    ``doc_id % 7 + 1``. Integer aspect-preserving downscale:
    ``out = dim * max_side // longest`` when the longest side exceeds
    ``max_side``, else unchanged.
    """

    def __init__(self, max_side: int = 64, decoder: str = "fake"):
        if decoder not in ("fake", "real"):
            raise ValueError(f"unknown decoder {decoder!r}")
        if decoder == "real":  # pragma: no cover - stub
            raise NotImplementedError("real image decoding unavailable here")
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("media").to_pylist()
        out_w, out_h = [], []
        for d, p in zip(doc_ids, payloads):
            w, h = len(p), d % 7 + 1
            longest = max(w, h)
            if longest > self.max_side:
                w, h = w * self.max_side // longest, h * self.max_side // longest
            out_w.append(w)
            out_h.append(h)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "out_width": pa.array(out_w, type=pa.int64()),
                "out_height": pa.array(out_h, type=pa.int64()),
                "out_bytes": pa.array([w * h * 3 for w, h in zip(out_w, out_h)], type=pa.int64()),
            }
        )


def media_resize(sf_dir: str, max_side: int = 64, concurrency: int = 2) -> "ray.data.Dataset":
    return media_table(sf_dir).map_batches(
        MediaResizer,
        fn_constructor_kwargs={"max_side": max_side},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )


def frame_sample_batch(batch: pa.Table, every: int = 10) -> pa.Table:
    """Frame-sampling explode (video): one output row per sampled
    frame. The fake video model is 1 frame per payload byte at 25 fps;
    a real implementation swaps the byte count for an ffmpeg demuxer
    inside the same batch shape (row explosion, small batches)."""
    rows_doc, rows_idx, rows_ts = [], [], []
    for d, p in zip(batch.column("doc_id").to_pylist(), batch.column("media").to_pylist()):
        n_frames = len(p)
        for idx in range(0, n_frames, every):
            rows_doc.append(d)
            rows_idx.append(idx)
            rows_ts.append(idx * 40)  # ms at 25 fps
    return pa.table(
        {
            "doc_id": pa.array(rows_doc, type=pa.int64()),
            "frame_idx": pa.array(rows_idx, type=pa.int64()),
            "ts_ms": pa.array(rows_ts, type=pa.int64()),
        }
    )


def media_frame_sample(sf_dir: str, every: int = 10) -> "ray.data.Dataset":
    return media_table(sf_dir).map_batches(
        lambda b: frame_sample_batch(b, every),
        batch_format="pyarrow",
        batch_size=256,
    )


class AudioWindower:
    """Actor-pool audio framing stage (wav payloads): explode each
    clip into fixed-size analysis windows with per-window energy —
    the STFT-input framing step of an audio pipeline. The sample
    decode is the byte stream itself under the fake decoder (a real
    implementation swaps in soundfile/ffmpeg inside the same batch
    shape); window geometry and the integer energy sum are exact, so
    the stage is SQL-oracle-checkable.

    ``__init__`` holds the window plan (once per actor); ``__call__``
    vectorizes the explode with a stride trick per clip.
    """

    def __init__(self, win: int = 32, hop: int = 16, decoder: str = "fake"):
        if decoder not in ("fake", "real"):
            raise ValueError(f"unknown decoder {decoder!r}")
        if decoder == "real":  # pragma: no cover - stub
            raise NotImplementedError("real audio decoding unavailable here")
        self.win = win
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_start, out_energy = [], [], [], []
        for d, p, fmt in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media").to_pylist(),
            batch.column("media_format").to_pylist(),
        ):
            if fmt != "wav" or len(p) < self.win:
                continue
            samples = np.frombuffer(p, dtype=np.uint8).astype(np.int64)
            n_windows = (len(samples) - self.win) // self.hop + 1
            starts = np.arange(n_windows) * self.hop
            # strided window sum (vectorized; windows overlap at hop<win)
            csum = np.concatenate([[0], np.cumsum(samples)])
            energy = csum[starts + self.win] - csum[starts]
            out_doc.extend([d] * n_windows)
            out_idx.extend(range(n_windows))
            out_start.extend(starts.tolist())
            out_energy.extend(energy.tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "window_idx": pa.array(out_idx, type=pa.int64()),
                "start_sample": pa.array(out_start, type=pa.int64()),
                "energy": pa.array(out_energy, type=pa.int64()),
            }
        )


def media_audio_windows(
    sf_dir: str, win: int = 32, hop: int = 16, concurrency: int = 2
) -> "ray.data.Dataset":
    """wav clips → overlapping analysis windows (actor pool, small
    batches — audio rows are large)."""
    return media_table(sf_dir).map_batches(
        AudioWindower,
        fn_constructor_kwargs={"win": win, "hop": hop},
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
        num_cpus=1,
    )


# --- perceptual hashing (image near-dup at 100 TB) -------------------------

_DCT32: np.ndarray | None = None


def _dct_matrix(n: int = 32) -> np.ndarray:
    """Orthonormal DCT-II matrix (the pHash frequency transform)."""
    k = np.arange(n, dtype=np.float64)
    m = np.cos(np.pi * (2.0 * k[None, :] + 1.0) * k[:, None] / (2.0 * n))
    m[0] *= 1.0 / np.sqrt(2.0)
    return m * np.sqrt(2.0 / n)


def area_resize(img: np.ndarray, out: int = 32) -> np.ndarray:
    """Area-average resample to ``out×out`` for ARBITRARY input sizes
    (variable-width pixel boxes via ``np.add.reduceat``) — the
    anti-aliased reduction pHash needs, pure numpy. Unlike a pad-to-
    multiple block mean, this keeps the sampled geometry proportional,
    so an upscaled copy of an image hashes near its original."""
    h, w = img.shape
    if h < out:
        img = np.repeat(img, -(-out // h), axis=0)
        h = img.shape[0]
    if w < out:
        img = np.repeat(img, -(-out // w), axis=1)
        w = img.shape[1]
    rb = np.arange(out) * h // out
    cb = np.arange(out) * w // out
    s = np.add.reduceat(np.add.reduceat(img, rb, axis=0), cb, axis=1)
    rc = np.diff(np.append(rb, h))
    cc = np.diff(np.append(cb, w))
    return s / np.outer(rc, cc)


def phash64(img: np.ndarray) -> int:
    """64-bit perceptual hash (standard pHash construction): grayscale
    → 32×32 area-mean → 2D DCT-II → top-left 8×8 low-frequency block →
    median threshold (median over the 63 AC coefficients so a flat
    image doesn't flip every bit). Robust to brightness scaling,
    mild noise and resizing; near-duplicate images land within a few
    bits of hamming distance."""
    global _DCT32
    if _DCT32 is None:
        _DCT32 = _dct_matrix(32)
    g = area_resize(np.asarray(img, dtype=np.float64), 32)
    c = _DCT32 @ g @ _DCT32.T
    block = c[:8, :8].ravel()
    med = np.median(block[1:])
    return int.from_bytes(np.packbits(block > med).tobytes(), "big")


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount of xor over uint64 arrays."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)


class PHashExtractor:
    """Actor-pool stage: payload → perceptual hash. DCT matrix built
    once per actor in ``__init__``; the real decoder stays behind the
    same ``decode_media`` stub as every other media stage."""

    def __init__(self, decoder: str = "fake"):
        if decoder not in ("fake", "real", "pil"):
            raise ValueError(f"unknown decoder {decoder!r}")
        self.decoder = decoder
        self.dct = _dct_matrix(32)

    def _image(self, payload: bytes, fmt: str) -> np.ndarray:
        if self.decoder == "real":
            return decode_media(payload, fmt)  # pragma: no cover - stub
        if self.decoder == "pil":
            return decode_media_pil(payload, fmt)
        # deterministic pseudo-image from the payload bytes
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(32, 32)).astype(np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        payloads = batch.column("media").to_pylist()
        fmts = batch.column("media_format").to_pylist()
        hs = [
            np.int64(np.uint64(phash64(self._image(p, f))))
            for p, f in zip(payloads, fmts)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "phash": pa.array(hs, type=pa.int64()),
            }
        )


def media_phash_pairs(
    sf_dir: str | None = None,
    max_hamming: int = 3,
    decoder: str = "fake",
    concurrency: int = 2,
    media: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """(doc_a, doc_b, hamming) — image near-duplicate pairs by pHash
    banding: 4 exact 16-bit bands (any pair within hamming ≤ 3 shares
    one), an exchange keyed on (band, band value), per-bucket
    vectorized xor-popcount verify, a pair-keyed dedup exchange — the
    ``dedup.simhash_neardup_pairs`` shape applied to the media column,
    with the hash itself computed by an actor pool (DCT matrix per
    actor, decoder stub honest)."""
    import pandas as pd

    from ..kernels.partitioning import keyed_exchange, table_width

    if media is None:
        media = media_table(sf_dir)
        width = table_width(sf_dir, "documents")
    else:
        width = 64  # a caller's Dataset has no table to size by
    hashes = media.map_batches(
        PHashExtractor(decoder=decoder),
        batch_format="pyarrow",
        batch_size=256,
        concurrency=concurrency,
    )

    def to_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs = batch.column("phash").to_numpy(zero_copy_only=False)
        uh = hs.view(np.uint64)
        n = len(ids)
        # vectorized band expansion: 4 rows per hash, no Python loop
        bands = np.repeat(np.arange(4, dtype=np.int32)[None, :], n, axis=0).ravel()
        shifts = (bands.astype(np.uint64) * np.uint64(16))
        vals = ((np.repeat(uh, 4) >> shifts) & np.uint64(0xFFFF)).astype(np.int32)
        return pa.table(
            {
                "band": pa.array(bands, type=pa.int32()),
                "band_val": pa.array(vals, type=pa.int32()),
                "doc_id": pa.array(np.repeat(ids, 4), type=pa.int64()),
                "phash": pa.array(np.repeat(hs, 4), type=pa.int64()),
            }
        )

    def emit_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group[["band", "band_val", "doc_id", "phash"]].drop_duplicates()
        m = g.merge(g, on=["band", "band_val"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        if not len(m):
            return pd.DataFrame({"doc_a": [], "doc_b": [], "hamming": []}).astype(
                {"doc_a": "int64", "doc_b": "int64", "hamming": "int32"}
            )
        ham = hamming64(
            m["phash_x"].to_numpy().astype(np.uint64),
            m["phash_y"].to_numpy().astype(np.uint64),
        )
        out = pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy(),
                "doc_b": m["doc_id_y"].to_numpy(),
                "hamming": ham.astype(np.int32),
            }
        )
        return out[out["hamming"] <= max_hamming].drop_duplicates(["doc_a", "doc_b"])

    bands = hashes.map_batches(to_bands, batch_format="pyarrow")
    pairs = keyed_exchange(bands, ["band", "band_val"], emit_bucket, width)
    out = keyed_exchange(
        pairs, ["doc_a", "doc_b"], lambda b: b.drop_duplicates(["doc_a", "doc_b"]), width
    )
    # materialise with an explicit schema: on an all-unique corpus the
    # result is EMPTY, and Dataset.to_pandas drops columns on zero
    # blocks — the pair set is near-dup-bounded, so this collect is
    # tiny by the same argument that makes the banding exchange cheap
    schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int32())]
    )
    tables = [
        t.select(["doc_a", "doc_b", "hamming"]).cast(schema)
        for t in ray.get(out.to_arrow_refs())
        if t.num_columns
    ] or [schema.empty_table()]
    return pa.concat_tables(tables)
