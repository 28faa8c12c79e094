"""Persistent job/result store (SQLite) for the campaign service.

Finished campaigns are never recomputed: results are keyed by the
content-derived job id (:mod:`repro.service.jobs`), so a resubmission —
same process, after a restart, or from a different client — is answered
from disk.  The store also keeps the durable job ledger the scheduler
resumes from (jobs that were ``queued``/``running`` when a process died
go back on the queue) and a replayable stream of lifecycle events.

Concurrency: WAL journaling plus a per-connection lock make one
``ResultStore`` safe to share between threads, and multiple instances
(even in different processes) safe to point at the same file — SQLite
serialises the writers, ``busy_timeout`` absorbs the contention.

Transactions: every write commits as one transaction of its own, unless
it runs inside :meth:`ResultStore.transaction`, which it then joins —
the scheduler writes each step of a job's lifecycle (enqueue, start,
finish) as one transaction.

Schema changes bump :data:`SCHEMA_VERSION` (kept in ``PRAGMA
user_version``); opening a store written by a different schema fails
loudly instead of corrupting it.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Union

#: Bump on incompatible schema changes (stored in ``PRAGMA user_version``).
#: v2 added the ``shards`` table (partial fleet results); v3 added the
#: ``traces`` table (per-job observability spans).  Older databases are
#: migrated in place (purely additive DDL).
SCHEMA_VERSION = 3

#: Job lifecycle states.
STATES = ("queued", "running", "done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id       TEXT PRIMARY KEY,
    kind         TEXT NOT NULL,
    spec         TEXT NOT NULL,
    state        TEXT NOT NULL,
    error        TEXT,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL
);
CREATE TABLE IF NOT EXISTS results (
    job_id           TEXT PRIMARY KEY REFERENCES jobs(job_id),
    payload          TEXT NOT NULL,
    trials           INTEGER,
    simulated_cycles INTEGER,
    created_at       REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    job_id  TEXT NOT NULL,
    seq     INTEGER NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state);
"""

#: Added in v2: one row per completed fleet shard, keyed by the shard's
#: content hash so duplicate completions collapse.  Rows only exist
#: while their job is unfinished (``store_result`` clears them); after a
#: coordinator crash they are the resume points.
_SCHEMA_V2 = """
CREATE TABLE IF NOT EXISTS shards (
    shard_id        TEXT PRIMARY KEY,
    job_id          TEXT NOT NULL,
    attack_index    INTEGER NOT NULL,
    scheme_revision INTEGER NOT NULL,
    payload         TEXT NOT NULL,
    created_at      REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS shards_by_job ON shards(job_id);
"""

#: Added in v3: one row per span of a job's observability trace
#: (:mod:`repro.obs.trace`).  Traces are written once, when the job
#: reaches a terminal state, and replace any earlier attempt's rows —
#: ``GET /jobs/<id>/trace`` is answered from here after a restart.
_SCHEMA_V3 = """
CREATE TABLE IF NOT EXISTS traces (
    job_id TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    span   TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);
"""


class StoreError(RuntimeError):
    """A result-store operation failed."""


class SchemaMismatchError(StoreError):
    """The database was written by an incompatible store version."""


@dataclass(frozen=True)
class JobRecord:
    """One row of the job ledger."""

    job_id: str
    kind: str
    spec: dict[str, Any]
    state: str
    error: Optional[str]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "title": self.spec.get("title", ""),
            "state": self.state,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class ResultStore:
    """SQLite-backed job ledger + result/outcome-tally store."""

    def __init__(self, path: Union[str, Path] = ":memory:", timeout: float = 30.0):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path,
            timeout=timeout,
            check_same_thread=False,
            isolation_level=None,  # explicit transactions: see transaction()
        )
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    # -- lifecycle ---------------------------------------------------------
    def _init_schema(self) -> None:
        with self._lock:
            if self.path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            with self.transaction():
                version = self._conn.execute("PRAGMA user_version").fetchone()[0]
                if version in (0, 1, 2):
                    # No executescript here: it would implicitly commit the
                    # BEGIN IMMEDIATE guarding concurrent creators.  Every
                    # schema bump so far only *adds* tables, so upgrading
                    # any older version is the same additive DDL.
                    for statement in (_SCHEMA + _SCHEMA_V2 + _SCHEMA_V3).split(";"):
                        if statement.strip():
                            self._conn.execute(statement)
                    self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
                elif version != SCHEMA_VERSION:
                    raise SchemaMismatchError(
                        f"store {self.path!r} has schema v{version}, this "
                        f"build speaks v{SCHEMA_VERSION}; migrate or use a "
                        f"fresh database file"
                    )

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """One write transaction: the block's writes commit together when
        it ends, or none of them do if it raises.  Other threads' store
        calls wait until it ends.

        A transaction opened inside another one is a savepoint of it: a
        write that fails inside the outer transaction rolls back only its
        own statements, and the outer one can still commit."""
        with self._lock:
            if self._conn.in_transaction:
                begin, commit = "SAVEPOINT write", ("RELEASE write",)
                rollback = ("ROLLBACK TO write", "RELEASE write")
            else:
                begin, commit, rollback = "BEGIN IMMEDIATE", ("COMMIT",), ("ROLLBACK",)
            self._conn.execute(begin)
            try:
                yield
                for statement in commit:
                    self._conn.execute(statement)
            except BaseException:
                # Some SQLite errors (disk full, I/O) end the transaction
                # themselves: then there is nothing left to roll back.
                if self._conn.in_transaction:
                    for statement in rollback:
                        self._conn.execute(statement)
                raise

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- job ledger --------------------------------------------------------
    def record_job(
        self, job_id: str, kind: str, spec: dict[str, Any], force: bool = False
    ) -> None:
        """Insert (or re-queue) a job in state ``queued``.

        Re-recording an existing job resets a failed/cancelled attempt to
        ``queued`` but never touches a ``done`` row (results are final)
        unless ``force`` — the scheduler forces when a stored result was
        deliberately invalidated (e.g. its scheme builder was replaced).
        """
        now = time.time()
        guard = "" if force else "WHERE jobs.state != 'done'"
        with self.transaction():
            self._conn.execute(
                f"""
                INSERT INTO jobs (job_id, kind, spec, state, submitted_at)
                VALUES (?, ?, ?, 'queued', ?)
                ON CONFLICT(job_id) DO UPDATE SET
                    state = 'queued', error = NULL,
                    submitted_at = excluded.submitted_at,
                    started_at = NULL, finished_at = NULL
                {guard}
                """,
                (job_id, kind, json.dumps(spec), now),
            )

    def set_state(
        self, job_id: str, state: str, error: Optional[str] = None
    ) -> None:
        if state not in STATES:
            raise StoreError(f"unknown job state {state!r}; expected {STATES}")
        now = time.time()
        started = now if state == "running" else None
        finished = now if state in ("done", "failed", "cancelled") else None
        with self.transaction():
            cursor = self._conn.execute(
                """
                UPDATE jobs SET state = ?, error = ?,
                    started_at = COALESCE(?, started_at),
                    finished_at = COALESCE(?, finished_at)
                WHERE job_id = ?
                """,
                (state, error, started, finished, job_id),
            )
            if cursor.rowcount == 0:
                raise StoreError(f"unknown job {job_id!r}")

    def get_job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return self._record(row) if row is not None else None

    def list_jobs(
        self, state: Optional[str] = None, limit: int = 100
    ) -> list[JobRecord]:
        query = "SELECT * FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY submitted_at DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (limit,)).fetchall()
        return [self._record(row) for row in rows]

    def resumable_jobs(self) -> list[JobRecord]:
        """Jobs a restarted service should put back on its queue: anything
        left ``queued`` or ``running`` by a previous process."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs WHERE state IN ('queued', 'running') "
                "ORDER BY submitted_at"
            ).fetchall()
        return [self._record(row) for row in rows]

    def recover_interrupted(self) -> int:
        """Startup sweep: reset jobs a dead coordinator left ``running``.

        A coordinator killed between the ledger insert and its first
        event — or anywhere mid-execution — leaves the row ``running``
        with no process behind it.  Until the scheduler re-enqueues it,
        such a row is a *phantom*: ``/jobs/<id>`` reports RUNNING work
        that nobody is doing (and ``--no-resume`` services would report
        it forever).  The sweep resets those rows to ``queued`` (their
        completed fleet shards, if any, stay in ``shards`` and are
        reused on resume).  Returns the number of rows swept.

        Call this only at startup, before serving: with two live
        coordinator processes sharing one database it would re-queue the
        other process's genuinely-running jobs (harmless — results are
        content-keyed and idempotent — but wasteful).
        """
        with self.transaction():
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'queued', error = NULL, "
                "started_at = NULL WHERE state = 'running'"
            )
        return cursor.rowcount

    def counts(self) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        return {row["state"]: row["n"] for row in rows}

    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            job_id=row["job_id"],
            kind=row["kind"],
            spec=json.loads(row["spec"]),
            state=row["state"],
            error=row["error"],
            submitted_at=row["submitted_at"],
            started_at=row["started_at"],
            finished_at=row["finished_at"],
        )

    # -- results -----------------------------------------------------------
    def store_result(self, job_id: str, payload: dict[str, Any]) -> None:
        """Persist a finished job's result payload and mark it ``done``."""
        attacks = (payload.get("report") or {}).get("attacks") or {}
        trials = sum(a.get("trials", 0) for a in attacks.values()) or None
        cycles = (
            sum(a.get("simulated_cycles", 0) for a in attacks.values()) or None
        )
        now = time.time()
        with self.transaction():
            self._conn.execute(
                """
                INSERT OR REPLACE INTO results
                    (job_id, payload, trials, simulated_cycles, created_at)
                VALUES (?, ?, ?, ?, ?)
                """,
                (job_id, json.dumps(payload), trials, cycles, now),
            )
            cursor = self._conn.execute(
                "UPDATE jobs SET state = 'done', error = NULL, "
                "finished_at = ? WHERE job_id = ?",
                (now, job_id),
            )
            if cursor.rowcount == 0:
                raise StoreError(f"unknown job {job_id!r}")
            # Partial fleet results are resume points, not archives: once
            # the merged result is durable they are dead weight.
            self._conn.execute("DELETE FROM shards WHERE job_id = ?", (job_id,))

    def get_result(self, job_id: str) -> Optional[dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE job_id = ?", (job_id,)
            ).fetchone()
        return json.loads(row["payload"]) if row is not None else None

    def has_result(self, job_id: str) -> bool:
        """Existence check without deserialising the (possibly large)
        payload — the HTTP tier's gate for the analysis endpoints."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE job_id = ?", (job_id,)
            ).fetchone()
        return row is not None

    # -- fleet shards ------------------------------------------------------
    def store_shard(
        self,
        shard_id: str,
        job_id: str,
        attack_index: int,
        scheme_revision: int,
        payload: dict[str, Any],
    ) -> None:
        """Persist one completed fleet shard.  A duplicate completion
        refreshes the row: shard ids are content hashes, so two honest
        writers carry byte-identical payloads, and a stale row from a
        superseded scheme revision is safely replaced."""
        with self.transaction():
            self._conn.execute(
                """
                INSERT OR REPLACE INTO shards
                    (shard_id, job_id, attack_index, scheme_revision,
                     payload, created_at)
                VALUES (?, ?, ?, ?, ?, ?)
                """,
                (
                    shard_id,
                    job_id,
                    attack_index,
                    scheme_revision,
                    json.dumps(payload),
                    time.time(),
                ),
            )

    def shard_payloads(
        self, job_id: str
    ) -> dict[str, tuple[int, int, dict[str, Any]]]:
        """The job's stored partial results:
        ``{shard_id: (attack_index, scheme_revision, payload)}``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard_id, attack_index, scheme_revision, payload "
                "FROM shards WHERE job_id = ? ORDER BY attack_index",
                (job_id,),
            ).fetchall()
        return {
            row["shard_id"]: (
                row["attack_index"],
                row["scheme_revision"],
                json.loads(row["payload"]),
            )
            for row in rows
        }

    # -- traces ------------------------------------------------------------
    def store_trace(self, job_id: str, spans: list[dict[str, Any]]) -> None:
        """Persist a job's observability trace (one row per span),
        replacing any trace from an earlier attempt — a resubmitted job's
        trace must not interleave with its predecessor's."""
        with self.transaction():
            self._conn.execute("DELETE FROM traces WHERE job_id = ?", (job_id,))
            self._conn.executemany(
                "INSERT INTO traces (job_id, seq, span) VALUES (?, ?, ?)",
                [
                    (job_id, seq, json.dumps(span, sort_keys=True))
                    for seq, span in enumerate(spans)
                ],
            )

    def get_trace(self, job_id: str) -> Optional[list[dict[str, Any]]]:
        """The job's stored trace spans in order (``None`` when the job
        never recorded one — observability off, or still running)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT span FROM traces WHERE job_id = ? ORDER BY seq",
                (job_id,),
            ).fetchall()
        if not rows:
            return None
        return [json.loads(row["span"]) for row in rows]

    # -- events ------------------------------------------------------------
    def append_event(self, job_id: str, payload: dict[str, Any]) -> int:
        """Append one lifecycle event; returns its sequence number."""
        with self.transaction():
            seq = self._conn.execute(
                "SELECT 1 + COALESCE(MAX(seq), 0) FROM events WHERE job_id = ?",
                (job_id,),
            ).fetchone()[0]
            self._conn.execute(
                "INSERT INTO events (job_id, seq, payload) VALUES (?, ?, ?)",
                (job_id, seq, json.dumps(payload)),
            )
        return seq

    def events(self, job_id: str) -> list[dict[str, Any]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM events WHERE job_id = ? ORDER BY seq",
                (job_id,),
            ).fetchall()
        return [json.loads(row["payload"]) for row in rows]

    def clear_events(self, job_ids: Iterable[str]) -> None:
        ids = list(job_ids)
        if not ids:
            return
        with self.transaction():
            self._conn.executemany(
                "DELETE FROM events WHERE job_id = ?", [(i,) for i in ids]
            )
