"""Shared experiment execution: parallel grid fan-out + on-disk memo cache.

Every experiment in this package is a sweep over *independent grid
points* (one pattern simulated per contention value, per expansion
factor, per key family, ...).  Instead of each module hand-rolling a
``for`` loop, they declare the points and hand them to :func:`run_grid`,
which supplies two orthogonal services:

* **parallelism** — grid points fan out over a process pool
  (``--parallel N`` on the CLI, ``REPRO_PARALLEL`` in the environment);
* **memoization** — each point's result is cached on disk, keyed by
  ``(code version, point function, arguments)``, where arguments cover
  the machine parameters, the pattern spec and the seed.  Re-running a
  sweep after touching an unrelated file is near-instant; touching any
  source file under ``repro`` invalidates every key at once (the code
  version is a digest of the package sources — coarse but impossible to
  fool with a stale result).

Point functions must be module-level (picklable by reference) and their
arguments/results picklable; results should be small (floats, tuples,
light dataclasses), which all experiment points satisfy.

Whole experiments also run concurrently: :func:`run_experiments` fans
the registry ids of ``python -m repro.experiments --all`` out over the
pool, capturing each experiment's stdout so reports stay untangled.

The pooled fan-out is **zero-copy** for array payloads: large ndarray
kwargs (a 64K address pattern, an SpMV input vector) are published once
into named ``multiprocessing.shared_memory`` segments and workers
receive a small handle instead of a pickled copy; cache hits never
reach the pool at all, and the misses are submitted in *chunks* (a few
tasks per worker) rather than one future per point, so pool overhead
stays O(workers), not O(points).

Both layers are **fault tolerant**: a grid point that raises, times out
or takes its worker process down does not abort the sweep — the failed
points are retried serially in-process once the pool drains (and a
crashed experiment under ``--all`` is likewise rerun serially).
Unreadable cache entries are quarantined (renamed to ``*.corrupt``)
instead of being re-hit, and Ctrl-C tears the pool down without waiting
for stragglers; shared-memory segments orphaned by an abnormal exit are
swept by :func:`clear_cache` alongside stale tmp files.  Every run
tallies :class:`GridStats` (cache hits and misses, retries, timeouts,
quarantines, shared-memory traffic, pool vs cache wall-clock) which
:mod:`repro.experiments.manifest` exports as machine-readable run
manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import os
import pickle
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    as_completed,
)
from contextlib import redirect_stdout
from multiprocessing import shared_memory
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import ParameterError

__all__ = [
    "run_grid",
    "run_experiments",
    "ExperimentOutcome",
    "GridStats",
    "grid_stats",
    "reset_grid_stats",
    "configure",
    "cache_dir",
    "cache_key",
    "cache_fetch",
    "cache_store",
    "code_version",
    "clear_cache",
    "shm_segment_name",
]

#: Process-wide overrides set by :func:`configure` (e.g. from CLI flags).
#: ``None`` means "fall through to the environment, then the default".
_config: Dict[str, Any] = {"parallel": None, "cache": None, "cache_dir": None}

_CACHE_VERSION = 2  # bump to invalidate every on-disk entry at once
# v2: lists and tuples hash under distinct tags (they used to collide).


@dataclasses.dataclass
class GridStats:
    """Counters accumulated by :func:`run_grid` (and reset per experiment
    by :func:`run_experiments`), the observable record of how a sweep
    actually executed.

    Attributes
    ----------
    points:
        Grid points requested.
    cache_hits / cache_misses:
        Points served from / absent from the on-disk memo cache (both
        stay zero while caching is disabled).
    retries:
        Points re-executed serially after their pooled attempt raised,
        timed out, or lost its worker process.
    timeouts:
        Points whose pooled attempt exceeded the per-point timeout.
    quarantined:
        Unreadable cache entries renamed to ``*.corrupt``.
    bytes_shipped:
        ndarray payload bytes routed to pool workers through shared
        memory instead of pickled copies (counted per point reference:
        one vector shared by ten points ships its size ten times here
        while occupying one segment).
    shm_hits:
        Point kwargs served to workers via a shared-memory handle.
    dedup_collapsed:
        Points collapsed onto an identical earlier point (same
        ``cache_key``) within one :func:`run_grid` submission — they
        never probe the disk memo nor reach the pool; the first
        occurrence's result answers them all.  Zero while caching is
        disabled (no keys, no dedupe).
    fused_points:
        Cache-miss points evaluated through a fused grid task (the
        point function's ``grid_fuse`` adapter) instead of one-by-one.
    pool_seconds:
        Wall-clock spent computing cache misses (pool fan-out plus
        serial retries and result stores); excludes in-process fused
        evaluation, which lands in ``fused_seconds``.
    cache_seconds:
        Wall-clock spent scanning/loading the on-disk memo cache —
        kept separate from ``pool_seconds`` because hits never reach
        the pool.
    fused_seconds:
        Wall-clock spent inside fused grid evaluations.  Disjoint from
        ``pool_seconds`` when fused groups run in-process; measured
        worker-side (and therefore concurrent with ``pool_seconds``)
        when they run as pooled tasks.
    """

    points: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0
    bytes_shipped: int = 0
    shm_hits: int = 0
    dedup_collapsed: int = 0
    fused_points: int = 0
    pool_seconds: float = 0.0
    cache_seconds: float = 0.0
    fused_seconds: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (manifest/JSON export)."""
        return dataclasses.asdict(self)


#: Process-wide tally across run_grid calls; snapshot via grid_stats().
_stats = GridStats()


def grid_stats() -> GridStats:
    """Copy of the tally accumulated since the last reset."""
    return dataclasses.replace(_stats)


def reset_grid_stats() -> GridStats:
    """Zero the tally; returns the counts it held."""
    global _stats
    snapshot = _stats
    _stats = GridStats()
    return snapshot


def configure(
    parallel: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[os.PathLike] = None,
) -> None:
    """Set process-wide execution defaults (the CLI calls this).

    Passing ``None`` for a field leaves it unchanged; fields keep
    falling back to ``REPRO_PARALLEL`` / ``REPRO_CACHE`` /
    ``REPRO_CACHE_DIR`` and then to serial, cache-on defaults.
    """
    if parallel is not None:
        if parallel < 1:
            raise ParameterError(f"parallel must be >= 1, got {parallel}")
        _config["parallel"] = int(parallel)
    if cache is not None:
        _config["cache"] = bool(cache)
    if cache_dir is not None:
        _config["cache_dir"] = Path(cache_dir)


def _parallelism(override: Optional[int]) -> int:
    if override is not None:
        return max(1, int(override))
    if _config["parallel"] is not None:
        return _config["parallel"]
    env = os.environ.get("REPRO_PARALLEL", "")
    return max(1, int(env)) if env.isdigit() else 1


def _cache_enabled(override: Optional[bool]) -> bool:
    if override is not None:
        return override
    if _config["cache"] is not None:
        return _config["cache"]
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_dir() -> Path:
    """Directory holding memoized grid-point results."""
    if _config["cache_dir"] is not None:
        return _config["cache_dir"]
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-experiments"


def clear_cache() -> int:
    """Delete every cached entry; returns the number removed.

    Sweeps live entries (``*.pkl``), quarantined unreadable ones
    (``*.corrupt``), temp files orphaned by interrupted writers
    (``.<key>.<pid>.tmp``) and shared-memory scratch segments orphaned
    by an abnormal exit (``/dev/shm/repro_shm_*`` — a run killed
    between publishing its arrays and unlinking them leaves these
    behind), all counted in the return value.
    """
    removed = _sweep_shm()
    root = cache_dir()
    if not root.is_dir():
        return removed
    for pattern in ("*.pkl", "*.corrupt", ".*.tmp"):
        for path in sorted(root.glob(pattern)):
            path.unlink(missing_ok=True)
            removed += 1
    return removed


_code_version: Optional[str] = None


def code_version() -> str:
    """Digest of every source file under the ``repro`` package.

    Any edit to any module invalidates all cached results.  Coarser than
    per-function dependency tracking, but a cached result can never
    survive a code change that would have altered it.
    """
    global _code_version
    if _code_version is None:
        root = Path(__file__).resolve().parents[1]
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()[:16]
    return _code_version


def _feed(h: "hashlib._Hash", value: Any, exact: bool = False) -> None:
    """Feed a canonical byte encoding of ``value`` into hasher ``h``.

    Covers everything experiment points pass around: scalars, strings,
    containers, numpy arrays (digested by dtype/shape/contents, so a
    64K-address pattern keys cheaply), and dataclasses such as
    :class:`~repro.simulator.machine.MachineConfig` (encoded field by
    field — the machine params part of the key).  Numbers encode by
    value, so 3 and 3.0 share a memo entry; ``exact`` keeps integers and
    floats apart, for a digest of raw requests, which the service
    validates by type.
    """
    if isinstance(value, np.ndarray):
        h.update(b"nd:")
        h.update(str(value.dtype).encode())
        h.update(str(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(b"dc:")
        h.update(type(value).__qualname__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _feed(h, getattr(value, f.name), exact)
    elif isinstance(value, dict):
        h.update(b"{:")
        for k in sorted(value, key=repr):
            _feed(h, k, exact)
            _feed(h, value[k], exact)
    elif isinstance(value, (list, tuple)):
        # Distinct tags: a list and a tuple of the same items are
        # different kwargs and must not share a memo entry.
        h.update(b"[:" if isinstance(value, list) else b"(:")
        for item in value:
            _feed(h, item, exact)
    elif isinstance(value, (str, bytes, bool, type(None))):
        h.update(repr(value).encode())
    elif isinstance(value, (int, float, np.integer, np.floating)):
        if exact:
            h.update(b"i:" if isinstance(value, (int, np.integer))
                     else b"f:")
        # One representation per numeric value regardless of numpy width.
        try:
            canon: Union[int, float] = (
                # Exact integrality test on purpose: 3.0 and 3 must encode
                # identically so numpy widths don't split memo entries.
                int(value) if float(value) == int(value)  # reprolint: disable=REPRO103
                else float(value)
            )
        except (OverflowError, ValueError):
            # An int too large for float(), or a non-finite float for
            # int(): only one of the two forms represents the value at
            # all, so the cross-width collapse is moot — encode it
            # directly instead of raising (request-derived values reach
            # this hasher, and hashing must be total over them).
            canon = int(value) if isinstance(value, (int, np.integer)) \
                else float(value)
        h.update(repr(canon).encode())
    else:
        h.update(b"pk:")
        h.update(pickle.dumps(value, protocol=4))
    h.update(b";")


def cache_key(fn: Callable, kwargs: Dict[str, Any]) -> str:
    """Stable key for one grid point: code version + function identity +
    canonicalized arguments."""
    h = hashlib.sha256()
    h.update(f"v{_CACHE_VERSION}:{code_version()}".encode())
    h.update(f"{fn.__module__}.{fn.__qualname__}".encode())
    _feed(h, kwargs)
    return h.hexdigest()


_MISS = object()


def cache_fetch(
    fn: Callable, kwargs: Dict[str, Any], key: Optional[str] = None
) -> Tuple[bool, Any]:
    """Probe the on-disk memo for one point: ``(True, value)`` on a hit
    for ``fn(**kwargs)``, else ``(False, None)``.  Never computes.
    ``key`` is the point's :func:`cache_key` when the caller already
    has it (``None``: computed here).

    This is the read-only side of the memo :func:`run_grid` maintains;
    the serving layer (:mod:`repro.serving`) probes it at admission so a
    previously-computed request can be answered without occupying a
    queue slot.  Returns a miss outright while caching is disabled
    (same switches as :func:`run_grid`), and deliberately leaves
    :class:`GridStats` untouched — the probe is not a grid point.
    """
    if not _cache_enabled(None):
        return False, None
    hit = _cache_load(cache_key(fn, kwargs) if key is None else key)
    if hit is _MISS:
        return False, None
    return True, hit


def cache_store(fn: Callable, kwargs: Dict[str, Any], value: Any) -> bool:
    """Write ``value`` into the memo as the result of ``fn(**kwargs)``.

    The write side of :func:`cache_fetch`, keyed identically (code
    version + function identity + canonicalized arguments), so state a
    caller persists here is found by any later session probing the same
    point.  The streaming simulator uses this to checkpoint streamed
    prefixes (:func:`repro.simulator.stream.stream_checkpoint`) under
    the same memo semantics as every experiment grid point.  Returns
    ``False`` without writing while caching is disabled (same switches
    as :func:`run_grid`); the write itself is best-effort and atomic.
    """
    if not _cache_enabled(None):
        return False
    _cache_store(cache_key(fn, kwargs), value)
    return True


def _cache_load(key: str) -> Any:
    path = cache_dir() / f"{key}.pkl"
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return _MISS
    except Exception:  # reprolint: disable=REPRO111 -- any unreadable entry is a miss, never a crash
        # The entry exists but cannot be read (truncated write, foreign
        # pickle, permission change...).  Quarantine it so the next run
        # does not pay the failed read again — clear_cache sweeps these.
        try:
            path.replace(path.with_suffix(".corrupt"))
            _stats.quarantined += 1
        except OSError:  # reprolint: disable=REPRO112 -- quarantine is best-effort
            pass
        return _MISS


def _cache_store(key: str, result: Any) -> None:
    root = cache_dir()
    try:
        root.mkdir(parents=True, exist_ok=True)
        tmp = root / f".{key}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump(result, fh, protocol=4)
        tmp.replace(root / f"{key}.pkl")  # atomic publish
    except OSError:  # reprolint: disable=REPRO112 -- caching is best-effort; never fail the experiment
        pass


#: Name prefix of this package's shared-memory segments (visible as
#: ``/dev/shm/<prefix>*`` files on Linux; swept by :func:`clear_cache`).
_SHM_PREFIX = "repro_shm_"

#: ndarray kwargs at least this big ship via shared memory; smaller
#: ones ride in the pickled task payload (a segment per tiny array
#: would cost more than it saves).
_SHM_MIN_BYTES = 64 * 1024

#: Where POSIX shared memory appears as plain files (Linux tmpfs);
#: monkeypatched by tests, skipped where the platform has no such dir.
_SHM_DIR = Path("/dev/shm")

_shm_counter = itertools.count()


def shm_segment_name() -> str:
    """Fresh shared-memory segment name under this package's prefix.

    The runner's zero-copy array shipping names every segment it creates
    through here, so :func:`clear_cache`'s orphan sweep (and a human
    looking at ``/dev/shm``) finds them by the prefix.  The name embeds
    the creating pid and a process-wide counter, so it never collides
    within a process tree.
    """
    return f"{_SHM_PREFIX}seg_{os.getpid()}_{next(_shm_counter)}"


def _sweep_shm() -> int:
    """Remove orphaned shared-memory scratch segments; returns the count.

    A normally-exiting :func:`run_grid` unlinks its own segments; this
    sweep (part of :func:`clear_cache`) collects what SIGKILL or a hard
    crash left behind.  Best-effort by design: live runs re-create what
    they need, and a segment that vanishes mid-delete is still gone.
    """
    if not _SHM_DIR.is_dir():
        return 0
    removed = 0
    for path in sorted(_SHM_DIR.glob(_SHM_PREFIX + "*")):
        try:
            path.unlink()
            removed += 1
        except OSError:  # reprolint: disable=REPRO112 -- sweep is best-effort; the segment may already be gone
            pass
    return removed


@dataclasses.dataclass(frozen=True)
class _ShmHandle:
    """Pickled in place of a large ndarray kwarg: workers attach the
    named segment and rebuild a (read-only) view instead of receiving
    a multi-megabyte pickled copy."""

    name: str
    dtype: str
    shape: Tuple[int, ...]


class _ShmSession:
    """Parent-side shared-memory publication for one :func:`run_grid`.

    Arrays are copied into named segments once each (deduplicated by
    object identity — an SpMV vector shared by every grid point
    occupies one segment) and unlinked in the grid's ``finally``;
    worker mappings survive the unlink until the pool winds down.
    """

    def __init__(self) -> None:
        self._segments: List[shared_memory.SharedMemory] = []
        self._handles: Dict[int, _ShmHandle] = {}

    def adapt(self, point: Dict[str, Any]) -> Dict[str, Any]:
        """Copy of ``point`` with large ndarray values replaced by
        handles (counted in ``GridStats.bytes_shipped``/``shm_hits``)."""
        out: Dict[str, Any] = {}
        for key, value in point.items():
            if (
                isinstance(value, np.ndarray)
                and value.nbytes >= _SHM_MIN_BYTES
                and not value.dtype.hasobject
            ):
                out[key] = self._publish(value)
                _stats.shm_hits += 1
                _stats.bytes_shipped += int(value.nbytes)
            else:
                out[key] = value
        return out

    def _publish(self, arr: np.ndarray) -> _ShmHandle:
        handle = self._handles.get(id(arr))
        if handle is not None:
            return handle
        contig = np.ascontiguousarray(arr)
        seg = shared_memory.SharedMemory(
            name=shm_segment_name(),
            create=True,
            size=contig.nbytes,
        )
        np.ndarray(contig.shape, dtype=contig.dtype, buffer=seg.buf)[...] \
            = contig
        handle = _ShmHandle(seg.name, str(contig.dtype), tuple(contig.shape))
        self._segments.append(seg)
        self._handles[id(arr)] = handle
        return handle

    def close(self) -> None:
        """Unlink every published segment (idempotent, best-effort)."""
        segments, self._segments = self._segments, []
        self._handles = {}
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except OSError:  # reprolint: disable=REPRO112 -- teardown is best-effort; clear_cache sweeps leftovers
                pass


#: Worker-side attachment cache: one mapping per segment per worker
#: process.  Entries whose segment the parent has since unlinked are
#: evicted lazily by :func:`_evict_stale_attachments` — a long-lived
#: worker (a serving shard, a reused pool process) must not pin every
#: segment it ever mapped, because an mmap keeps the memory alive even
#: after the unlink.
_attached: Dict[str, shared_memory.SharedMemory] = {}


def _evict_stale_attachments() -> int:
    """Drop cached attachments whose segment the parent has unlinked.

    Called on every attachment-cache miss (i.e. when a *new* pool's
    segments start arriving — exactly the moment the previous pool's
    segments have been unlinked).  A mapping still exported to a live
    numpy view raises ``BufferError`` on close and is kept for the next
    sweep; everything else is closed so the kernel can finally free the
    unlinked pages.  Returns the number of entries evicted.  No-op on
    platforms without a visible shm directory — there the liveness
    probe (does the backing file still exist?) is unavailable, and the
    pre-fix behaviour (cache for the process lifetime) is kept.
    """
    if not _SHM_DIR.is_dir():
        return 0
    evicted = 0
    for name in list(_attached):
        if (_SHM_DIR / name).exists():
            continue  # parent still owns it; mapping stays hot
        seg = _attached[name]
        try:
            seg.close()
        except BufferError:  # reprolint: disable=REPRO112 -- a live view pins the mapping; entry stays for the next sweep
            # A numpy view from an in-flight (or leaked) resolve still
            # exports the buffer; closing now would invalidate it.
            continue
        del _attached[name]
        evicted += 1
    return evicted


def _attach(handle: _ShmHandle) -> np.ndarray:
    seg = _attached.get(handle.name)
    if seg is None:
        # A miss means a new publication round (new pool / new grid) is
        # reaching this worker — sweep the previous rounds' unlinked
        # segments before mapping more memory.
        _evict_stale_attachments()
        # Attaching re-registers the name with the resource tracker.
        # Pool workers (fork and spawn both) inherit the parent's
        # tracker, whose registry is a set, so the re-registration is
        # idempotent and the parent's unlink clears the single entry —
        # no unregister dance needed worker-side.
        seg = shared_memory.SharedMemory(name=handle.name)
        _attached[handle.name] = seg
    # np.frombuffer keeps the memoryview as the view's base and holds
    # its buffer export for the array's lifetime (np.ndarray(buffer=)
    # would unwrap to the mmap and drop the export): an eviction sweep
    # racing a live view gets a BufferError instead of unmapping the
    # pages out from under it.
    dtype = np.dtype(handle.dtype)
    count = int(np.prod(handle.shape, dtype=np.int64)) \
        if handle.shape else 1
    arr = np.frombuffer(seg.buf, dtype=dtype, count=count) \
        .reshape(handle.shape)
    # Read-only: grid points share these pages across workers, so a
    # mutating point function must fail loudly, not corrupt its peers.
    arr.setflags(write=False)
    return arr


def _resolve(point: Dict[str, Any]) -> Dict[str, Any]:
    return {
        key: _attach(value) if isinstance(value, _ShmHandle) else value
        for key, value in point.items()
    }


def _run_chunk(fn: Callable, chunk: List[Dict[str, Any]]) -> List[Any]:
    """Worker-side execution of one chunk of grid points."""
    return [fn(**_resolve(point)) for point in chunk]


def _run_fused(
    fn: Callable, group: List[Dict[str, Any]]
) -> Tuple[float, List[Any]]:
    """Evaluate one fused group through ``fn.grid_fuse.run``.

    Runs in-process on the serial path and as a single pooled task on
    the pooled path (one dispatch for the whole group instead of one
    per point).  Returns ``(elapsed_seconds, results)`` — the elapsed
    time is the ``GridStats.fused_seconds`` datum, measured here so
    pooled fused tasks report their own compute time.
    """
    points = [_resolve(point) for point in group]
    # Fused evaluation wall-clock is a GridStats datum, never cached.
    t0 = time.perf_counter()  # reprolint: disable=REPRO102
    out = fn.grid_fuse.run(points)
    elapsed = time.perf_counter() - t0  # reprolint: disable=REPRO102
    if not isinstance(out, list) or len(out) != len(points):
        raise ParameterError(
            f"{fn.__name__}.grid_fuse.run must return one result per "
            f"point; got {len(out) if isinstance(out, list) else out!r} "
            f"for {len(points)} points"
        )
    return elapsed, out


def _fusion_split(
    fn: Callable,
    points: List[Dict[str, Any]],
    todo: List[int],
    fuse: Optional[bool],
) -> Tuple[List[int], List[List[int]]]:
    """Partition the cache misses into per-point work and fused groups.

    A point function opts in by exposing a ``grid_fuse`` adapter with
    ``key(point)`` (a hashable compatibility key, or ``None`` for "run
    this point alone") and ``run(points)`` (evaluate a compatible group,
    results aligned).  Misses sharing a key form one fused group; keys
    held by a single point, keyless points, and everything when fusion
    is off stay on the per-point path.  ``fuse=None`` means "fuse when
    the adapter exists"; ``False`` forces per-point evaluation.
    """
    fuser = getattr(fn, "grid_fuse", None)
    if fuse is False or fuser is None or len(todo) < 2:
        return list(todo), []
    singles: List[int] = []
    by_key: Dict[Any, List[int]] = {}
    for i in todo:
        key = fuser.key(points[i])
        if key is None:
            singles.append(i)
        else:
            by_key.setdefault(key, []).append(i)
    groups: List[List[int]] = []
    for group in by_key.values():
        if len(group) >= 2:
            groups.append(group)
        else:
            singles.append(group[0])
    singles.sort()
    return singles, groups


#: Chunks submitted per worker: >1 keeps the pool load-balanced when
#: point costs vary without falling back to one future per point.
_CHUNKS_PER_WORKER = 4


def _pool(workers: int, cache: Optional[bool] = None) -> ProcessPoolExecutor:
    # Workers inherit the parent's effective cache settings but run
    # serially themselves — nested pools would oversubscribe the machine.
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=configure,
        initargs=(1, _cache_enabled(cache), cache_dir()),
    )


def run_grid(
    fn: Callable,
    points: Sequence[Dict[str, Any]],
    *,
    parallel: Optional[int] = None,
    cache: Optional[bool] = None,
    timeout: Optional[float] = None,
    fuse: Optional[bool] = None,
    keys: Optional[Sequence[str]] = None,
) -> List[Any]:
    """Evaluate ``fn(**point)`` for every point, in order.

    Results come back aligned with ``points`` regardless of completion
    order.  Cached points are served from disk without touching the
    pool; only misses are executed (and then stored).  While caching is
    enabled, *identical* points (same ``cache_key``) within one call
    are deduplicated up front: the first occurrence probes the memo and
    computes, the duplicates share its result
    (``GridStats.dedup_collapsed`` counts them).

    A point function may expose a ``grid_fuse`` adapter (see
    :func:`_fusion_split`): compatible cache misses are then dispatched
    as *one fused task* — a single vectorized pass over the whole group
    — instead of one task per point.  Each fused result is stored under
    its own point's ``cache_key``, and the adapter contract requires
    per-point results identical to ``fn(**point)``, so the memo stays
    bit-identical point for point.  A fused group that fails for any
    reason falls back to evaluating its points individually.

    The pooled fan-out never aborts the sweep on a single bad point: a
    point whose worker raises, exceeds ``timeout``, or dies (OOM kill,
    segfault — the whole pool breaks) is collected and retried serially
    in-process after the pool drains, so one flaky point costs one
    retry, not the whole grid.  Only a failure of the *serial* retry
    propagates.  Ctrl-C shuts the pool down immediately without waiting
    for outstanding points.

    Parameters
    ----------
    fn:
        Module-level point function (must be picklable by reference).
    points:
        One kwargs dict per grid point.
    parallel:
        Worker processes; default from :func:`configure` /
        ``REPRO_PARALLEL`` / 1.  With one worker (or one miss) the
        points run in-process — no pool overhead.
    cache:
        Force caching on/off for this grid; default from
        :func:`configure` / ``REPRO_CACHE`` / on.  Points that measure
        wall-clock time must pass ``cache=False``.  Disabling the cache
        also disables dedupe (no keys are computed, and repeat points
        may be intentional timing probes).
    timeout:
        Per-point seconds before a pooled point is abandoned and
        retried serially (a chunk of ``k`` points is waited on for
        ``k * timeout``, so the bound is per point, not a global
        budget; a timed-out chunk retries all of its points).
        ``None`` (default) waits forever.  Serial execution ignores
        it — in-process work cannot be preempted safely.
    fuse:
        ``None`` (default) fuses whenever ``fn`` carries a
        ``grid_fuse`` adapter; ``False`` forces per-point evaluation
        (e.g. for benchmarking the unfused path); ``True`` is the
        explicit spelling of the default behaviour.
    keys:
        Each point's :func:`cache_key`, when the caller already computed
        them (``None``: computed here, and only while caching is on).
    """
    points = [dict(p) for p in points]
    if keys is not None and len(keys) != len(points):
        raise ParameterError(
            f"run_grid got {len(keys)} keys for {len(points)} points"
        )
    results: List[Any] = [None] * len(points)
    enabled = _cache_enabled(cache)
    point_keys: List[Optional[str]] = [None] * len(points)
    todo: List[int] = []
    dup_of: Dict[int, int] = {}
    first_of_key: Dict[str, int] = {}
    _stats.points += len(points)
    # Cache-scan wall-clock is a GridStats datum (pool vs cache split
    # in run manifests), never itself cached or compared.
    t0 = time.perf_counter()  # reprolint: disable=REPRO102
    for i, point in enumerate(points):
        if enabled:
            key = cache_key(fn, point) if keys is None else keys[i]
            point_keys[i] = key
            first = first_of_key.get(key)
            if first is not None:
                # Identical point already seen in this submission:
                # collapse onto it — no second disk probe, no second
                # evaluation; its result is copied in at the end.
                dup_of[i] = first
                _stats.dedup_collapsed += 1
                continue
            first_of_key[key] = i
            hit = _cache_load(key)
            if hit is not _MISS:
                results[i] = hit
                _stats.cache_hits += 1
                continue
            _stats.cache_misses += 1
        todo.append(i)
    _stats.cache_seconds += time.perf_counter() - t0  # reprolint: disable=REPRO102

    t0 = time.perf_counter()  # reprolint: disable=REPRO102
    serial_fused = 0.0
    singles, fused_groups = _fusion_split(fn, points, todo, fuse)
    workers = min(_parallelism(parallel), len(singles) + len(fused_groups))
    if workers > 1:
        failed: List[int] = []
        session = _ShmSession()
        pool = _pool(workers, cache)
        try:
            payload = {i: session.adapt(points[i]) for i in todo}
            # A few chunks per worker: large enough to amortize pool
            # dispatch, small enough to balance uneven point costs.
            chunk_size = max(
                1, -(-len(singles) // (workers * _CHUNKS_PER_WORKER))
            )
            chunks = [
                singles[j:j + chunk_size]
                for j in range(0, len(singles), chunk_size)
            ]
            futures = {
                pool.submit(_run_chunk, fn, [payload[i] for i in chunk]):
                    ("chunk", chunk)
                for chunk in chunks
            }
            for group in fused_groups:
                # One pooled task per fused group: the whole compatible
                # sweep rides one dispatch + one vectorized pass.
                fut = pool.submit(
                    _run_fused, fn, [payload[i] for i in group]
                )
                futures[fut] = ("fused", group)
            for fut, (kind, chunk) in futures.items():
                try:
                    outcome = fut.result(
                        timeout=None if timeout is None
                        else timeout * len(chunk)
                    )
                except FuturesTimeoutError:
                    fut.cancel()
                    _stats.timeouts += len(chunk)
                    failed.extend(chunk)
                    continue
                except Exception:  # reprolint: disable=REPRO111 -- fault-tolerant retry must catch everything
                    # Includes BrokenProcessPool: when a worker dies the
                    # executor poisons every outstanding future, so each
                    # lands here and joins the serial retry pass.
                    failed.extend(chunk)
                    continue
                if kind == "fused":
                    elapsed, chunk_results = outcome
                    _stats.fused_seconds += elapsed
                    _stats.fused_points += len(chunk)
                else:
                    chunk_results = outcome
                for i, r in zip(chunk, chunk_results):
                    results[i] = r
        finally:
            # On SIGINT (or any error) drop queued work and return
            # without waiting for stragglers; workers are reaped on
            # interpreter exit.  Unlinking the segments here is safe:
            # workers that already mapped them keep their mappings.
            pool.shutdown(wait=False, cancel_futures=True)
            session.close()
        for i in failed:
            # Serial retries take the original points — arrays inline,
            # no shared-memory indirection (nor a fused pass) to go
            # wrong twice.
            _stats.retries += 1
            results[i] = fn(**points[i])
    else:
        for group in fused_groups:
            try:
                elapsed, group_results = _run_fused(fn, [points[i] for i in group])
            except Exception:  # reprolint: disable=REPRO111 -- a broken fused pass must fall back per point, not kill the grid
                for i in group:
                    _stats.retries += 1
                    results[i] = fn(**points[i])
                continue
            serial_fused += elapsed
            _stats.fused_seconds += elapsed
            _stats.fused_points += len(group)
            for i, r in zip(group, group_results):
                results[i] = r
        for i in singles:
            results[i] = fn(**points[i])

    if enabled:
        for i in todo:
            _cache_store(point_keys[i], results[i])
        for i, first in dup_of.items():
            results[i] = results[first]
    # In-process fused evaluation is its own wall-clock bucket; the
    # remainder of this block (pool fan-out, retries, stores) stays in
    # pool_seconds.
    _stats.pool_seconds += (
        time.perf_counter() - t0 - serial_fused  # reprolint: disable=REPRO102
    )
    return results


@dataclasses.dataclass(frozen=True)
class ExperimentOutcome:
    """One registry experiment's rendered output, wall-clock and stats.

    Attributes
    ----------
    exp_id:
        Registry id (DESIGN.md).
    output:
        The report string returned by the experiment's ``main()``.
    seconds:
        Wall-clock time of the run.
    captured:
        Everything the experiment wrote to stdout while running
        (``main()`` conventionally prints its own report, so this
        usually contains ``output`` plus any stray prints).
    stats:
        :class:`GridStats` accumulated by the experiment's grids.
    retries:
        Times the whole experiment was rerun serially after its pool
        worker died.
    """

    exp_id: str
    output: str
    seconds: float
    captured: str = ""
    stats: GridStats = dataclasses.field(default_factory=GridStats)
    retries: int = 0

    @property
    def stray_output(self) -> str:
        """Captured stdout that is not part of the returned report —
        debug prints that previously vanished under ``--all``."""
        stray = self.captured
        if self.output:
            stray = stray.replace(self.output, "", 1)
        return stray.strip()


def _run_experiment(exp_id: str) -> ExperimentOutcome:
    """Run one registry experiment, capturing its stdout and grid stats."""
    from . import REGISTRY  # deferred: workers re-import lazily

    reset_grid_stats()
    buf = io.StringIO()
    # Wall-clock here is the datum itself (ExperimentOutcome.seconds,
    # recorded in run manifests) — it is never cached or compared.
    t0 = time.perf_counter()  # reprolint: disable=REPRO102
    with redirect_stdout(buf):
        out = REGISTRY[exp_id].main()
    return ExperimentOutcome(
        exp_id,
        out if isinstance(out, str) else ("" if out is None else str(out)),
        time.perf_counter() - t0,  # reprolint: disable=REPRO102
        captured=buf.getvalue(),
        stats=grid_stats(),
    )


def run_experiments(
    ids: Sequence[str],
    parallel: Optional[int] = None,
) -> List[ExperimentOutcome]:
    """Run whole experiments (registry ids) concurrently, in id order.

    Unlike :func:`run_grid` there is no memo layer here — the per-point
    caches inside each experiment already carry the reuse; this level
    only supplies the fan-out for ``--all``.  An experiment whose pool
    worker dies is rerun serially (``outcome.retries`` records it), so
    one crash never takes down the whole ``--all`` sweep.
    """
    ids = list(ids)
    workers = min(_parallelism(parallel), len(ids))
    if workers <= 1:
        return [_run_experiment(i) for i in ids]
    results: Dict[str, ExperimentOutcome] = {}
    retry: List[str] = []
    pool = _pool(workers)
    try:
        futures = {pool.submit(_run_experiment, i): i for i in ids}
        for fut in as_completed(futures):
            try:
                outcome = fut.result()
            except Exception:  # reprolint: disable=REPRO111 -- one crashed experiment must not kill --all
                retry.append(futures[fut])
                continue
            results[outcome.exp_id] = outcome
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    for exp_id in sorted(retry, key=ids.index):
        results[exp_id] = dataclasses.replace(
            _run_experiment(exp_id), retries=1
        )
    return [results[i] for i in ids]
