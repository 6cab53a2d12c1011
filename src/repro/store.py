"""Durable, self-healing experiment-result store.

The ROADMAP's "simulate once, serve millions" direction needs results
that outlive the process that computed them — and that survive crashed
writers, concurrent sweeps, code drift, and disk corruption without
ever serving a wrong byte.  This module is that foundation:

* **Content-addressed keys.**  :func:`result_key` hashes a canonical
  encoding of everything a result depends on — experiment kind, config
  objects, seeds — together with the store schema version and a code
  version tag, so any config-field change, seed change, or version
  bump lands on a different entry, while irrelevant execution details
  (worker counts, pool start methods) never enter the digest.
* **Atomic, verified entries.**  Every entry is written to a unique
  temp file, fsync'd, and renamed into place (:func:`write_record`);
  every read re-hashes the payload against the embedded SHA-256
  digest (:func:`read_record`).  A flipped byte, a truncated write, or
  a schema mismatch is *detected*, the entry is quarantined into a
  sidecar directory, and the caller sees a plain cache miss — never an
  exception, never corrupt bytes.
* **Single-flight recompute.**  :meth:`ResultStore.get_or_compute`
  takes a per-key advisory ``flock`` while computing, so N concurrent
  workers asking for the same missing entry compute it once and share
  the result.  Locks die with their holder (kernel-released), so a
  crashed writer never wedges the key.
* **Graceful degradation.**  A read-only store, a full disk, or an
  unavailable root never fails an experiment: the store logs once,
  marks itself degraded, and every request falls through to compute.
"""

import errno
import hashlib
import json
import logging
import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import fields, is_dataclass

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = [
    "CODE_VERSION",
    "MISS",
    "SCHEMA_VERSION",
    "ResultStore",
    "StoreCorruption",
    "Uncacheable",
    "canonical_token",
    "default_store",
    "main_store",
    "read_record",
    "resolve_store",
    "result_key",
    "set_default_store",
    "write_record",
]

log = logging.getLogger("repro.store")

#: On-disk record schema.  Bumping it invalidates (quarantines on
#: read) every existing entry and changes every derived key.
SCHEMA_VERSION = 1

#: Result-semantics tag folded into every key.  Bump when a change
#: makes previously stored results stale without a schema change: a
#: changed protocol constant (only the variant switches are
#: ``ViFiConfig`` fields, so no key sees the constants), a new default
#: or changed summary fields.
CODE_VERSION = "2026.10-perfect-relay-overhears"

#: Leading bytes of every record file.
MAGIC = b"REPRO-STORE\n"

#: Sentinel returned by :meth:`ResultStore.get` on a miss (``None`` is
#: a legitimate stored value).
MISS = object()

#: Environment variable naming the default store root.  When set,
#: ``run_trips`` sweeps and experiment drivers that were not handed an
#: explicit store transparently memoize through it.
STORE_ENV_VAR = "REPRO_RESULT_STORE"


class StoreCorruption(Exception):
    """An entry failed verification (bad digest, truncation, schema)."""


class Uncacheable(TypeError):
    """A value cannot be canonically tokenized for key derivation."""


# ----------------------------------------------------------------------
# Canonical tokens and key derivation
# ----------------------------------------------------------------------

def canonical_token(obj):
    """A canonical, JSON-encodable token for *obj*.

    The token determines the cache key, so it must be stable across
    processes, platforms, and dict orderings, and distinct for any
    semantically distinct value:

    * primitives are tagged (``True`` and ``1`` differ, ``1`` and
      ``"1"`` differ);
    * floats use ``repr`` (shortest round-trip, stable across runs);
    * dicts sort by key token; sequences keep order (lists and tuples
      tokenize identically — argument "shape" is not semantic);
    * dataclasses (e.g. :class:`~repro.core.protocol.ViFiConfig`)
      tokenize as class name + per-field tokens, so *any* field change
      changes the digest;
    * objects may publish an explicit identity via a ``cache_token()``
      method (the testbeds do);
    * numpy arrays tokenize as dtype/shape plus a content hash.

    Raises:
        Uncacheable: for objects with none of the above — the caller
            should degrade (skip caching), not guess at identity.
    """
    if obj is None:
        return ["none"]
    if isinstance(obj, bool):
        return ["bool", obj]
    if isinstance(obj, int):
        return ["int", str(obj)]
    if isinstance(obj, float):
        return ["float", repr(obj)]
    if isinstance(obj, str):
        return ["str", obj]
    if isinstance(obj, (bytes, bytearray)):
        return ["bytes", hashlib.sha256(bytes(obj)).hexdigest()]
    if isinstance(obj, (list, tuple)):
        return ["seq", [canonical_token(x) for x in obj]]
    if isinstance(obj, dict):
        items = sorted(
            ([canonical_token(k), canonical_token(v)]
             for k, v in obj.items()),
            key=lambda kv: json.dumps(kv[0]),
        )
        return ["map", items]
    if isinstance(obj, (set, frozenset)):
        members = sorted((canonical_token(x) for x in obj),
                         key=json.dumps)
        return ["set", members]
    token_method = getattr(obj, "cache_token", None)
    if callable(token_method):
        return ["obj", canonical_token(token_method())]
    if is_dataclass(obj) and not isinstance(obj, type):
        field_map = {f.name: getattr(obj, f.name) for f in fields(obj)}
        return ["data", type(obj).__qualname__, canonical_token(field_map)]
    # numpy scalars and arrays (numpy is a hard dependency already).
    item = getattr(obj, "item", None)
    shape = getattr(obj, "shape", None)
    if callable(item) and shape == ():
        return canonical_token(item())
    if shape is not None and hasattr(obj, "tobytes"):
        return ["array", str(obj.dtype), list(shape),
                hashlib.sha256(obj.tobytes()).hexdigest()]
    if callable(obj) and hasattr(obj, "__qualname__"):
        return ["fn", getattr(obj, "__module__", ""), obj.__qualname__]
    raise Uncacheable(
        f"cannot derive a canonical cache token for {type(obj).__name__!r}"
        f" (add a cache_token() method or pass primitives)"
    )


def result_key(kind, *parts, schema_version=SCHEMA_VERSION,
               code_version=CODE_VERSION):
    """Content-addressed key (SHA-256 hex) for a result.

    Args:
        kind: short string naming the result family (``"run-trips"``,
            ``"dieselnet-beacon-log"``, ...).
        *parts: everything the result depends on — configs, seeds,
            task arguments.  Tokenized via :func:`canonical_token`.
        schema_version / code_version: folded into the digest so a
            store schema bump or a result-semantics bump can never
            serve stale entries.

    Raises:
        Uncacheable: when a part has no canonical token.
    """
    token = ["repro-result", int(schema_version), str(code_version),
             str(kind), [canonical_token(p) for p in parts]]
    blob = json.dumps(token, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------

def write_record(path, payload, key=""):
    """Atomically write *payload* (any picklable) as a verified record.

    The bytes hit a unique temp file in the destination directory
    first (concurrent writers never collide), are fsync'd *before* the
    rename (a crash mid-write leaves the old entry intact, never a
    torn new one), then renamed into place; the directory entry is
    fsync'd afterwards so the rename itself is durable.

    Raises:
        OSError: disk full, read-only filesystem, missing directory —
            the caller decides whether that degrades or propagates.
        pickle.PicklingError / TypeError: unpicklable payload.
    """
    blob = pickle.dumps(payload, protocol=4)
    header = json.dumps(
        {"schema": SCHEMA_VERSION, "key": str(key),
         "sha256": hashlib.sha256(blob).hexdigest(), "length": len(blob)},
        sort_keys=True,
    ).encode("utf-8") + b"\n"
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=".rec")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header)
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


def _fsync_dir(directory):
    """Best-effort directory fsync (durability of the rename)."""
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)


def read_record(path, expected_key=None):
    """Read and *verify* a record written by :func:`write_record`.

    Every payload byte is re-hashed against the embedded digest before
    unpickling, so corrupt bytes can never reach a consumer.

    Raises:
        FileNotFoundError: no record at *path* (a plain miss).
        StoreCorruption: anything else wrong with the record — bad
            magic, truncated or unreadable header, schema mismatch,
            length mismatch, digest mismatch, key mismatch, or a
            payload that fails to unpickle.
        OSError: the file exists but cannot be read (I/O error).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(MAGIC):
        raise StoreCorruption("bad magic")
    rest = data[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise StoreCorruption("truncated header")
    try:
        header = json.loads(rest[:newline].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise StoreCorruption(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise StoreCorruption("malformed header")
    if header.get("schema") != SCHEMA_VERSION:
        raise StoreCorruption(
            f"schema mismatch (entry {header.get('schema')!r}, "
            f"store {SCHEMA_VERSION})"
        )
    blob = rest[newline + 1:]
    if header.get("length") != len(blob):
        raise StoreCorruption(
            f"truncated payload ({len(blob)} of {header.get('length')} "
            f"bytes)"
        )
    if hashlib.sha256(blob).hexdigest() != header.get("sha256"):
        raise StoreCorruption("payload digest mismatch")
    if expected_key is not None and header.get("key") != expected_key:
        raise StoreCorruption(
            f"key mismatch (entry {header.get('key')!r})"
        )
    try:
        return pickle.loads(blob)
    except Exception as exc:  # repro-lint: allow[SILENT-EXCEPT] unpickle failure with a matching digest is class drift, mapped to StoreCorruption so callers quarantine and recompute
        # The digest matched, so the writer stored something the
        # current code cannot load (class drift) — same remedy as
        # corruption: quarantine and recompute.
        raise StoreCorruption(f"payload failed to unpickle: {exc}") \
            from exc


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

class StoreStats:
    """Mutable request counters for one :class:`ResultStore`."""

    __slots__ = ("hits", "misses", "verify_failures", "quarantined",
                 "writes", "write_skips", "degraded")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.verify_failures = 0
        self.quarantined = 0
        self.writes = 0
        self.write_skips = 0
        self.degraded = None  # reason string once the write path died

    def snapshot(self):
        """The tracked counters as a plain dict (bench/record schema)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "verify_failures": self.verify_failures,
            "quarantined": self.quarantined,
            "writes": self.writes,
            "write_skips": self.write_skips,
            "degraded": self.degraded,
        }


class ResultStore:
    """Content-addressed on-disk result store.

    Layout under *root*::

        objects/<k[:2]>/<key>.rec   verified entries (write_record)
        quarantine/                 corrupt entries, moved aside
        locks/<key>.lock            advisory single-flight locks

    Every operation is failure-isolated: a store problem surfaces as a
    miss (reads) or a skipped write plus a logged degradation — never
    as an exception into the experiment.

    Args:
        root: store directory (created lazily on first write).
        read_only: serve hits but never write (a shared warm cache on
            media the run must not touch).
        lock_timeout_s: longest a request waits on another computer's
            single-flight lock before giving up and computing anyway
            (duplicate work, never a wrong result).
    """

    def __init__(self, root, read_only=False, lock_timeout_s=600.0):
        self.root = os.path.abspath(os.fspath(root))
        self.read_only = bool(read_only)
        self.lock_timeout_s = float(lock_timeout_s)
        self.stats = StoreStats()

    # -- paths ---------------------------------------------------------

    def object_path(self, key):
        return os.path.join(self.root, "objects", key[:2], f"{key}.rec")

    def _quarantine_dir(self):
        return os.path.join(self.root, "quarantine")

    def _lock_path(self, key):
        return os.path.join(self.root, "locks", f"{key}.lock")

    # -- core read/write ----------------------------------------------

    def _load(self, key):
        """Uncounted verified read: ``(status, value)``.

        Statuses: ``"hit"``, ``"miss"`` (no entry), ``"corrupt"``
        (entry quarantined), ``"error"`` (store unreadable).  Only
        ``verify_failures``/``quarantined`` counters move here; the
        caller decides what the request counts as.
        """
        path = self.object_path(key)
        try:
            value = read_record(path, expected_key=key)
        except FileNotFoundError:
            return "miss", None
        except StoreCorruption as exc:
            self.stats.verify_failures += 1
            log.warning("store entry %s failed verification (%s); "
                        "quarantining and recomputing", key[:12], exc)
            self._quarantine(path)
            return "corrupt", None
        except OSError as exc:
            self._degrade(f"read failed: {exc}")
            return "error", None
        return "hit", value

    def get(self, key, default=MISS):
        """Verified read; counts one hit or one miss."""
        status, value = self._load(key)
        if status == "hit":
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        return default

    def put(self, key, value):
        """Durable best-effort write; ``True`` when the entry landed."""
        if self.read_only or self.stats.degraded:
            self.stats.write_skips += 1
            return False
        path = self.object_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_record(path, value, key=key)
        except OSError as exc:
            self._degrade(f"write failed: {exc}")
            return False
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            # Unpicklable value: this key cannot be cached, but the
            # store itself is healthy.
            self.stats.write_skips += 1
            log.warning("store value for %s is not picklable (%s); "
                        "not cached", key[:12], exc)
            return False
        self.stats.writes += 1
        return True

    def get_or_compute(self, key, compute):
        """The memoization primitive: hit, or compute-once-and-store.

        On a miss the per-key advisory lock serializes computation
        across processes: the first requester computes and stores, the
        others block on the lock, then find the entry and share it.
        Lock acquisition failures (no ``fcntl``, unreachable store,
        timeout) degrade to computing without the lock — duplicate
        work at worst, since writes are atomic and last-writer-wins
        with equal content.

        Counts exactly one hit or miss per call (a racer filling the
        entry while this request waited still counts the original
        miss — the caller asked before the entry existed).
        """
        status, value = self._load(key)
        if status == "hit":
            self.stats.hits += 1
            return value
        self.stats.misses += 1
        with self._key_lock(key) as locked:
            if locked:
                status, value = self._load(key)
                if status == "hit":
                    return value
            value = compute()
            self.put(key, value)
        return value

    # -- failure handling ---------------------------------------------

    def _degrade(self, reason):
        """Disable the write path once, loudly, and carry on."""
        if self.stats.degraded is None:
            self.stats.degraded = str(reason)
            log.warning("result store %s degraded (%s); experiments "
                        "fall through to computation", self.root, reason)

    def _quarantine(self, path):
        """Move a corrupt entry aside so it is never re-served.

        On media where the move fails (read-only store) the entry is
        left in place — it re-fails verification on every read, which
        is safe (recompute), just slower.
        """
        qdir = self._quarantine_dir()
        base = os.path.basename(path)
        try:
            os.makedirs(qdir, exist_ok=True)
            target = os.path.join(qdir, base)
            serial = 0
            while os.path.exists(target):
                serial += 1
                target = os.path.join(qdir, f"{base}.{serial}")
            os.replace(path, target)
        except OSError as exc:
            try:
                os.unlink(path)
            except OSError:
                log.warning("could not quarantine or remove corrupt "
                            "entry %s (%s)", path, exc)
                return
        self.stats.quarantined += 1

    @contextmanager
    def _key_lock(self, key):
        """Advisory per-key lock; yields whether it was acquired.

        ``flock`` locks are released by the kernel when the holder
        dies, so a crashed computation never wedges the key.
        """
        if fcntl is None or self.stats.degraded:
            yield False
            return
        path = self._lock_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            yield False
            return
        acquired = False
        try:
            deadline = time.monotonic() + self.lock_timeout_s
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError as exc:
                    if exc.errno not in (errno.EACCES, errno.EAGAIN):
                        break
                    if time.monotonic() >= deadline:
                        log.warning(
                            "single-flight lock on %s still held after "
                            "%.0f s; computing without it", key[:12],
                            self.lock_timeout_s,
                        )
                        break
                    time.sleep(0.01)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:
                    pass
            os.close(fd)

    # -- maintenance ---------------------------------------------------

    def iter_entries(self):
        """Yield ``(key, path)`` for every stored object file."""
        objects = os.path.join(self.root, "objects")
        try:
            prefixes = sorted(os.listdir(objects))
        except OSError:
            return
        for prefix in prefixes:
            subdir = os.path.join(objects, prefix)
            try:
                names = sorted(os.listdir(subdir))
            except OSError:
                continue
            for name in names:
                if name.endswith(".rec") and not name.startswith("."):
                    yield name[:-len(".rec")], os.path.join(subdir, name)

    def entry_count(self):
        return sum(1 for _ in self.iter_entries())

    def quarantine_count(self):
        try:
            return len([n for n in os.listdir(self._quarantine_dir())
                        if not n.startswith(".")])
        except OSError:
            return 0

    def total_bytes(self):
        total = 0
        for _, path in self.iter_entries():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total

    def verify_all(self):
        """Re-verify every entry; corrupt ones are quarantined.

        Returns:
            ``(ok, quarantined)`` counts.
        """
        ok = bad = 0
        for key, _ in list(self.iter_entries()):
            status, _value = self._load(key)
            if status == "hit":
                ok += 1
            else:
                bad += 1
        return ok, bad

    def clear(self):
        """Remove every entry (quarantine and locks included)."""
        import shutil
        removed = self.entry_count()
        for sub in ("objects", "quarantine", "locks"):
            shutil.rmtree(os.path.join(self.root, sub),
                          ignore_errors=True)
        return removed


# ----------------------------------------------------------------------
# Default-store plumbing
# ----------------------------------------------------------------------

_installed_store = None
_installed = False
_env_store = None
_env_store_root = None


def set_default_store(store):
    """Install the process-wide default store.

    Accepts a :class:`ResultStore`, a path, or ``None`` to fall back
    to the :data:`STORE_ENV_VAR` environment variable.
    """
    global _installed_store, _installed
    if store is None:
        _installed_store, _installed = None, False
    else:
        _installed_store = (store if isinstance(store, ResultStore)
                            else ResultStore(store))
        _installed = True
    return _installed_store


@contextmanager
def installed_store(store):
    """Make *store* the process-wide default inside the block.

    ``None`` turns the default off (the :data:`STORE_ENV_VAR`
    environment variable is not consulted); the previous default
    returns when the block exits.
    """
    global _installed_store, _installed
    saved = _installed_store, _installed
    _installed_store, _installed = store, True
    try:
        yield store
    finally:
        _installed_store, _installed = saved


def default_store():
    """The ambient store: installed one, else the env-var one, else
    ``None`` (memoization off — the historical behaviour)."""
    global _env_store, _env_store_root
    if _installed:
        return _installed_store
    root = os.environ.get(STORE_ENV_VAR)
    if not root:
        return None
    root = os.path.abspath(root)
    if _env_store is None or _env_store_root != root:
        _env_store = ResultStore(root)
        _env_store_root = root
    return _env_store


def resolve_store(store):
    """Normalize a ``store=`` argument.

    ``None`` → the ambient default (possibly ``None``); ``False`` →
    disabled; a path → a :class:`ResultStore` on it; a store → itself.
    """
    if store is None:
        return default_store()
    if store is False:
        return None
    if isinstance(store, ResultStore):
        return store
    return ResultStore(store)


# ----------------------------------------------------------------------
# CLI: python -m repro store <stats|verify|clear>
# ----------------------------------------------------------------------

def main_store(argv=None):
    """``repro store`` subcommand: inspect and maintain a store."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro store",
        description="Inspect or maintain a result store.",
    )
    parser.add_argument("action", choices=("stats", "verify", "clear"),
                        help="stats: entry/quarantine counts; verify: "
                             "re-hash every entry (quarantining corrupt "
                             "ones); clear: drop all entries")
    parser.add_argument("--dir", default=None,
                        help=f"store root (default: ${STORE_ENV_VAR})")
    args = parser.parse_args(argv)

    root = args.dir or os.environ.get(STORE_ENV_VAR)
    if not root:
        parser.error(f"no store: pass --dir or set ${STORE_ENV_VAR}")
    store = ResultStore(root)
    if args.action == "stats":
        payload = {
            "root": store.root,
            "entries": store.entry_count(),
            "bytes": store.total_bytes(),
            "quarantined": store.quarantine_count(),
            "schema_version": SCHEMA_VERSION,
            "code_version": CODE_VERSION,
        }
        print(json.dumps(payload, indent=2))
    elif args.action == "verify":
        ok, bad = store.verify_all()
        print(json.dumps({"root": store.root, "verified_ok": ok,
                          "quarantined": bad}, indent=2))
        return 1 if bad else 0
    elif args.action == "clear":
        removed = store.clear()
        print(json.dumps({"root": store.root, "removed": removed},
                         indent=2))
    return 0
