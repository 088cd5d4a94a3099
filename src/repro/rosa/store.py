"""Fleet-wide, content-addressed, attested store for verdicts and profiles.

:class:`AttestedStore` is the one persistence primitive for results that
are pure functions of a content key.  Every record is one JSON object
named by its key, sharded into fanout directories, published
atomically, attested, and logged in an append-only lineage file.
Records are typed by a ``kind``: ``"verdict"`` (:class:`SharedVerdictStore`,
ROSA outcomes under :func:`repro.rosa.keys.query_cache_key`) and
``"profile"`` (:class:`repro.corpus.store.ProfileStore`, privilege
profiles under :func:`repro.corpus.profile.profile_key`).  Any process
that derives the same key reads the same object instead of recomputing.

Design rules, following the fail-closed promotion discipline of the
Crypto-Anaylzer exemplar (SNIPPETS.md):

* **Content addressing.** The object path is a pure function of the key,
  and the key binds every input of the result.
* **Binding.** A store handle also carries a *binding*: what the result
  depends on beyond its key — the rule-system signature
  (:func:`repro.rosa.keys.system_signature`, a digest of the model's
  source), plus the profile schema for profiles.
* **Atomic publish.** Objects are written tempfile-then-``os.replace``,
  so readers never observe a torn entry and concurrent publishers of the
  same key are harmless (same content, last replace wins).
* **Fail closed.** An entry is served only if its schema, kind, key and
  binding match and its attestation (a sha256 over all of them plus the
  payload) re-validates.  Anything else is *rejected*: counted, skipped,
  and recomputed by the caller, whose publish repairs the entry.
* **Append-only lineage.** Every publish appends one JSON line to
  ``lineage.jsonl`` under :func:`advisory_lock`.

Each kind is a class of a few lines with its own ``get(key)`` (the value
or ``None``) and ``put(key, value)`` (whether a fresh object landed) —
for verdicts, the duck type :class:`~repro.rosa.engine.QueryEngine`
consults as its L2 behind the in-memory LRU.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.rosa.engine import CachedOutcome
from repro.rosa.keys import system_signature

logger = logging.getLogger("repro.rosa.store")

#: Bump when the on-disk entry layout or the attestation material
#: changes; entries with another version are rejected (recomputed and
#: republished), never misread.  Version 2: one layout for every kind,
#: ``{schema, kind, key, binding, payload, attestation}``.
STORE_SCHEMA_VERSION = 2

#: Subdirectory holding the sharded objects.
OBJECTS_DIR = "objects"

#: Append-only publish history, one JSON line per published object.
LINEAGE_FILE = "lineage.jsonl"


@contextlib.contextmanager
def advisory_lock(
    path: str, timeout: float = 10.0, stale_after: float = 30.0
) -> Iterator[None]:
    """An advisory cross-process lock around ``path`` (a ``.lock`` sibling).

    Lockfile-based (``O_CREAT | O_EXCL``), so it works on any filesystem
    a store can live on — no ``fcntl`` dependency, no byte-range
    semantics to get wrong over NFS.  Waiting processes poll; a lockfile
    older than ``stale_after`` seconds is treated as an orphan (its
    holder crashed between acquire and release) and broken.  Raises
    ``TimeoutError`` if the lock cannot be won inside ``timeout`` seconds
    — callers must fail loudly rather than interleave their writes.
    """
    lock_path = path + ".lock"
    deadline = time.monotonic() + timeout
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except OSError as error:
            if error.errno != errno.EEXIST:
                raise
        try:
            age = time.time() - os.stat(lock_path).st_mtime
            if age > stale_after:
                # The holder died without releasing; break the orphan.
                # (A racing breaker just loses the unlink — harmless.)
                logger.warning("breaking stale lock %s (age %.1fs)", lock_path, age)
                os.unlink(lock_path)
                continue
        except OSError:
            pass  # the holder released between our open and stat
        if time.monotonic() >= deadline:
            raise TimeoutError(f"could not acquire {lock_path} in {timeout}s")
        time.sleep(0.002)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:  # pragma: no cover - already broken as stale
            pass


def attest(kind: str, key: str, binding: str, payload: Any) -> str:
    """The attestation digest of one store entry.

    A sha256 over the canonical JSON of everything the entry asserts:
    the store schema, the record kind, the key, the binding and the
    payload.  Readers recompute this and compare; a single flipped byte
    anywhere in the served material changes the digest and the entry is
    rejected (fail closed).
    """
    material = json.dumps(
        {
            "schema": STORE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "binding": binding,
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class AttestedStore:
    """A directory of attested, content-addressed records of one kind.

    Layout::

        <root>/objects/<key[:2]>/<key>.json   one record per key
        <root>/lineage.jsonl                  append-only publish history

    Safe for any number of concurrent reader and writer processes: reads
    never block, publishes are atomic replaces, and the only lock taken
    is around the lineage append.  Subclasses set :attr:`kind` and the
    payload codec (``encode``: value to JSON; ``decode``: back, raising
    on a malformed payload) and expose ``get``/``put`` over
    :meth:`_read` / :meth:`_publish`.
    """

    kind = ""

    def __init__(self, root: Union[str, Path], binding: str) -> None:
        self.root = Path(root)
        self.objects = self.root / OBJECTS_DIR
        self.objects.mkdir(parents=True, exist_ok=True)
        self.binding = binding
        self.hits = 0
        self.misses = 0
        self.published = 0
        self.rejected = 0

    def _path(self, key: str) -> Path:
        return self.objects / key[:2] / f"{key}.json"

    def _lineage_fields(self, value: Any) -> Dict[str, Any]:
        """Kind-specific summary fields of one lineage record."""
        return {}

    # -- reads -----------------------------------------------------------------

    def _read(self, key: str) -> Optional[Any]:
        """The attested value under ``key``, or ``None``.

        A missing object is a plain miss.  A present-but-invalid object
        (corrupt JSON, schema skew, wrong kind, foreign binding, key or
        attestation mismatch, undecodable payload) is a *rejection*:
        counted separately, logged, and reported as a miss so the caller
        recomputes — the fail-closed path never serves what it cannot
        re-validate.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            entry = None
        value = self._validate(key, entry)
        if value is None:
            logger.warning("store entry %s failed validation; rejecting", path)
            self.rejected += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _validate(self, key: str, entry: Any) -> Optional[Any]:
        """Re-derive the entry's attestation; ``None`` on any mismatch."""
        if not isinstance(entry, dict):
            return None
        if (
            entry.get("schema") != STORE_SCHEMA_VERSION
            or entry.get("kind") != self.kind
            or entry.get("key") != key
            or entry.get("binding") != self.binding
            or "payload" not in entry
        ):
            return None
        payload = entry["payload"]
        if entry.get("attestation") != attest(self.kind, key, self.binding, payload):
            return None
        try:
            return self.decode(payload)
        except (AttributeError, KeyError, TypeError, ValueError):
            return None

    # -- writes ----------------------------------------------------------------

    def _publish(self, key: str, value: Any) -> bool:
        """Publish ``value`` under ``key``; True if a fresh object landed.

        Re-publishing a key whose on-disk object already validates is a
        no-op (the content is identical by construction — the key binds
        every input).  An invalid object in the way is replaced:
        publishing is also the repair path for rejected entries.
        """
        path = self._path(key)
        if path.exists():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    if self._validate(key, json.load(handle)) is not None:
                        return False
            except (OSError, ValueError):
                pass  # torn or corrupt: fall through and replace it
        payload = self.encode(value)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "kind": self.kind,
            "key": key,
            "binding": self.binding,
            "payload": payload,
            "attestation": attest(self.kind, key, self.binding, payload),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{self.kind}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.published += 1
        self._append_lineage(key, value, entry["attestation"])
        return True

    def _append_lineage(self, key: str, value: Any, attestation: str) -> None:
        """One publish record into the append-only history, under the lock."""
        record = {
            "ts": round(time.time(), 3),
            "pid": os.getpid(),
            "kind": self.kind,
            "key": key,
            "binding": self.binding,
            "attestation": attestation,
            **self._lineage_fields(value),
        }
        lineage = self.root / LINEAGE_FILE
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            with advisory_lock(str(lineage)):
                with open(lineage, "a", encoding="utf-8") as handle:
                    handle.write(line)
        except (OSError, TimeoutError) as error:  # pragma: no cover - contention
            # Lineage is an audit trail, not a correctness dependency:
            # losing one record under extreme contention must not fail
            # the publish that already landed.
            logger.warning("lineage append failed for %s: %s", key, error)

    # -- introspection ---------------------------------------------------------

    def entry_count(self) -> int:
        """Objects on disk right now (walks the fanout dirs)."""
        count = 0
        try:
            with os.scandir(self.objects) as shards:
                for shard in shards:
                    if not shard.is_dir():
                        continue
                    with os.scandir(shard.path) as objects:
                        count += sum(
                            1 for obj in objects if obj.name.endswith(".json")
                        )
        except OSError:
            return 0
        return count

    def lineage(self) -> list:
        """All parseable lineage records, oldest first."""
        path = self.root / LINEAGE_FILE
        records = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        records.append(json.loads(line))
                    except ValueError:
                        continue
        except OSError:
            return []
        return records

    def stats(self) -> Dict[str, Any]:
        """This handle's counters plus the store's on-disk entry count."""
        total = self.hits + self.misses
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "kind": self.kind,
            "binding": self.binding,
            "entries": self.entry_count(),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "published": self.published,
            "rejected": self.rejected,
        }


class SharedVerdictStore(AttestedStore):
    """ROSA search outcomes, bound to one rule system's signature."""

    kind = "verdict"
    encode = staticmethod(CachedOutcome.to_json)
    decode = staticmethod(CachedOutcome.from_json)

    def __init__(self, root: Union[str, Path], system=None) -> None:
        binding = system_signature(system)
        if binding is None:
            raise ValueError("a rule system without a stable signature")
        super().__init__(root, binding)

    def get(self, key: str) -> Optional[CachedOutcome]:
        return self._read(key)

    def put(self, key: str, outcome: CachedOutcome) -> bool:
        return self._publish(key, outcome)

    def release(self, key: str) -> None:
        """Give up ``key`` without publishing (no slot to free here)."""

    def _lineage_fields(self, outcome: CachedOutcome) -> Dict[str, Any]:
        return {"verdict": outcome.verdict}


class SingleFlight:
    """In-process request coalescing in front of a shared store.

    ``privanalyzer serve`` answers many concurrent clients; without
    coalescing, N simultaneous requests for the same cold key would all
    miss the store and run N identical searches.  The first thread to
    miss becomes the *leader* (gets ``None`` back and is expected to
    search, then :meth:`put` or, for an answer it may not publish,
    :meth:`release`); threads that miss the same key while the
    leader is in flight *join*: they block until the leader publishes,
    then read the published object.  A leader that dies without
    publishing stops nobody — joiners time out and compute the answer
    themselves (the store's idempotent publish makes the duplicate
    harmless).

    Wraps — and duck-types — the store interface, so it drops into
    :class:`~repro.rosa.engine.QueryEngine` as the ``store`` unchanged.
    """

    def __init__(self, store: SharedVerdictStore, timeout: float = 60.0) -> None:
        self.store = store
        self.timeout = timeout
        self._lock = threading.Lock()
        self._inflight: Dict[str, threading.Event] = {}
        self.leaders = 0
        self.joined = 0

    def get(self, key: str) -> Optional[CachedOutcome]:
        outcome = self.store.get(key)
        if outcome is not None:
            return outcome
        with self._lock:
            event = self._inflight.get(key)
            if event is None:
                self._inflight[key] = threading.Event()
                self.leaders += 1
                return None  # this caller is the leader: search, then put()/release()
        if event.wait(self.timeout):
            outcome = self.store.get(key)
            if outcome is not None:
                self.joined += 1
                return outcome
        # The leader timed out, published nothing or was rejected: fall back to
        # computing live — correctness over coalescing.
        return None

    def put(self, key: str, outcome: CachedOutcome) -> bool:
        published = self.store.put(key, outcome)
        self.release(key)
        return published

    def release(self, key: str) -> None:
        """End ``key``'s flight, published or not: joiners wake and re-read
        the store, then search live if the leader published nothing."""
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def stats(self) -> Dict[str, Any]:
        stats = self.store.stats()
        stats["single_flight"] = {
            "leaders": self.leaders,
            "joined": self.joined,
            "inflight": len(self._inflight),
        }
        return stats
