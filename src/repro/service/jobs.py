"""Serialisable job specs for the campaign service.

A job is everything a service worker needs to reproduce a piece of work
from nothing but JSON: MiniC source text, a
:class:`~repro.toolchain.config.CompileConfig`, optional global
initializers (device-image bytes), and — for campaign jobs — the target
workload plus a list of *named* attack suites.

Job ids are stable content hashes derived from the same ingredients as
the :class:`~repro.toolchain.workbench.Workbench` compile-cache key
(source hash + config ``cache_key()``) plus the workload/attack spec, so

* identical submissions deduplicate — in flight, in the compile cache,
  and in the persistent :class:`~repro.service.store.ResultStore`;
* a client can compute the id locally, before (or without) submitting.

Attack suites are referenced by name (:data:`ATTACK_SUITES`), never by
pickled callables: the service trusts its own registry, not the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.faults.adversary import adversary_sweep
from repro.faults.isa_campaign import (
    AttackResult,
    CampaignReport,
    branch_flip_sweep,
    operand_corruption_sweep,
    repeated_branch_flip,
    skip_sweep,
)
from repro.spec.campaign import speculative_sweep
from repro.toolchain.config import CompileConfig

#: Job wire-format version (bump on incompatible layout changes).
JOB_SCHEMA_VERSION = 1

#: The stock attack suites a job may reference, by wire name.
ATTACK_SUITES: dict[str, Callable[..., AttackResult]] = {
    "skip-sweep": skip_sweep,
    "branch-flip": branch_flip_sweep,
    "repeated-branch-flip": repeated_branch_flip,
    "operand-corruption": operand_corruption_sweep,
    "adversary": adversary_sweep,
    "speculative": speculative_sweep,
}

#: Parameters of the suites that the *service* controls, not the job
#: (``record_trials`` is always on server-side so stored results can
#: build vulnerability maps without re-execution).
_RESERVED_SUITE_PARAMS = {
    "program",
    "function",
    "args",
    "engine",
    "executor",
    "record_trials",
    "spec",
}


class JobError(ValueError):
    """A job spec that cannot be built, parsed, or executed."""


def suite_name_for(attack_fn: Callable) -> str:
    """The wire name of a stock attack suite (reverse registry lookup)."""
    for name, fn in ATTACK_SUITES.items():
        if fn is attack_fn:
            return name
    raise JobError(
        f"{getattr(attack_fn, '__name__', attack_fn)!r} is not a stock "
        f"attack suite; service jobs can only reference "
        f"{sorted(ATTACK_SUITES)}"
    )


def _jsonable(value: Any) -> Any:
    """Normalise an attack kwarg to a JSON value (ranges/tuples -> lists)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple, range, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    raise JobError(
        f"attack kwarg value {value!r} is not serialisable; use "
        f"ints/strings/bools/lists"
    )


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class AttackSpec:
    """One named attack suite plus its (JSON-canonical) keyword arguments."""

    suite: str
    #: Canonical JSON object text — kept as a string so the spec stays
    #: hashable and the job id is byte-stable.
    kwargs_json: str = "{}"
    #: Overrides the result's attack label (must be unique within a job).
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.suite, str) or self.suite not in ATTACK_SUITES:
            raise JobError(
                f"unknown attack suite {self.suite!r}; known: "
                f"{sorted(ATTACK_SUITES)}"
            )
        try:
            kwargs = json.loads(self.kwargs_json)
        except json.JSONDecodeError as exc:
            raise JobError(f"attack kwargs are not valid JSON: {exc}") from exc
        if not isinstance(kwargs, dict):
            raise JobError(f"attack kwargs must be an object, got {kwargs!r}")
        accepted = _SUITE_KWARGS[self.suite]
        unknown = set(kwargs) - accepted
        if unknown:
            raise JobError(
                f"suite {self.suite!r} does not accept kwargs "
                f"{sorted(unknown)}; accepted: {sorted(accepted)}"
            )

    @classmethod
    def make(
        cls, suite: str, label: Optional[str] = None, **kwargs: Any
    ) -> "AttackSpec":
        """Build a spec, canonicalising ``kwargs`` (tuples/ranges become
        lists; unserialisable values raise :class:`JobError`)."""
        canonical = _canonical_json({k: _jsonable(v) for k, v in kwargs.items()})
        return cls(suite=suite, kwargs_json=canonical, label=label)

    @property
    def kwargs(self) -> dict[str, Any]:
        return json.loads(self.kwargs_json)

    @property
    def default_label(self) -> str:
        """The label the suite's AttackResult will carry unless overridden."""
        return self.label or _SUITE_RESULT_LABELS[self.suite]

    def to_dict(self) -> dict[str, Any]:
        return {"suite": self.suite, "kwargs": self.kwargs, "label": self.label}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttackSpec":
        if not isinstance(data, dict):
            raise JobError(f"attack spec must be an object, got {data!r}")
        unknown = set(data) - {"suite", "kwargs", "label"}
        if unknown:
            raise JobError(f"unknown attack spec fields: {sorted(unknown)}")
        if "suite" not in data:
            raise JobError("attack spec is missing 'suite'")
        return cls.make(
            data["suite"], label=data.get("label"), **(data.get("kwargs") or {})
        )


#: The keyword arguments each suite accepts from a job, read once off
#: the suite signatures (a spec is validated on every parse).
_SUITE_KWARGS = {
    name: frozenset(inspect.signature(fn).parameters) - _RESERVED_SUITE_PARAMS
    for name, fn in ATTACK_SUITES.items()
}

#: Label each suite's AttackResult carries, read off the suite functions
#: themselves (``fn.attack_label``) so the wire layer cannot drift from
#: :mod:`repro.faults.isa_campaign` — used to detect label collisions at
#: job-validation time instead of mid-campaign.
_SUITE_RESULT_LABELS = {
    name: fn.attack_label for name, fn in ATTACK_SUITES.items()
}


def _decode_initializers(
    initializers: Iterable[tuple[str, str]]
) -> dict[str, bytes]:
    try:
        return {name: bytes.fromhex(data) for name, data in initializers}
    except (ValueError, TypeError) as exc:
        raise JobError(f"bad initializer bytes: {exc}") from exc


def _freeze_initializers(pairs: Any) -> tuple[tuple[str, str], ...]:
    frozen = []
    for pair in pairs:
        name, data = pair
        if not isinstance(name, str) or not isinstance(data, str):
            raise JobError(f"initializers must be (name, hex) pairs, got {pair!r}")
        frozen.append((name, data.lower()))
    return tuple(sorted(frozen))


class _SourceJob:
    """What both job kinds share: MiniC source to compile."""

    def compile(self, workbench):
        """Compile the job's program through ``workbench``.  Every caller
        (runner threads, fleet workers, vulnerability maps) uses this one
        cache key, so they share the Workbench's compiled program."""
        return workbench.compile(
            self.source,
            self.config,
            initializers=_decode_initializers(self.initializers) or None,
        )


@dataclass(frozen=True)
class CampaignJob(_SourceJob):
    """A full compile-and-attack campaign as one frozen, serialisable value."""

    kind = "campaign"

    source: str
    function: str
    args: tuple[int, ...] = ()
    config: CompileConfig = field(default_factory=CompileConfig)
    attacks: tuple[AttackSpec, ...] = ()
    #: ``(global name, hex bytes)`` pairs installed before compilation.
    initializers: tuple[tuple[str, str], ...] = ()
    #: Human-readable display title (not part of the job id).
    title: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source.strip():
            raise JobError("campaign job needs non-empty MiniC source text")
        if not isinstance(self.function, str) or not self.function:
            raise JobError("campaign job needs a target function name")
        if not isinstance(self.config, CompileConfig):
            raise JobError(
                f"config must be a CompileConfig, got {type(self.config).__name__}"
            )
        object.__setattr__(self, "args", tuple(int(a) for a in self.args))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        object.__setattr__(
            self, "initializers", _freeze_initializers(self.initializers)
        )
        if not self.attacks:
            raise JobError("campaign job needs at least one attack spec")
        labels = [spec.default_label for spec in self.attacks]
        dupes = {label for label in labels if labels.count(label) > 1}
        if dupes:
            raise JobError(
                f"duplicate attack labels {sorted(dupes)}; disambiguate "
                f"with per-spec 'label'"
            )
        _decode_initializers(self.initializers)  # validate hex early

    # -- identity ---------------------------------------------------------
    def job_id(self) -> str:
        """Stable content hash; identical submissions share one id."""
        cached = self.__dict__.get("_job_id")
        if cached is None:
            from repro.toolchain.workbench import source_hash

            payload = {
                "v": JOB_SCHEMA_VERSION,
                "kind": self.kind,
                "source": source_hash(
                    self.source, _decode_initializers(self.initializers)
                ),
                "config": self.config.cache_key(),
                "function": self.function,
                "args": list(self.args),
                "attacks": [spec.to_dict() for spec in self.attacks],
            }
            digest = hashlib.sha256(_canonical_json(payload).encode())
            cached = f"cj-{digest.hexdigest()[:32]}"
            object.__setattr__(self, "_job_id", cached)
        return cached

    def shard_id(self, index: int) -> str:
        """Stable content hash of one attack shard of this job.

        The fleet protocol re-issues shards across workers; keying every
        shard (and its stored result) by content means a duplicate
        completion — a stolen lease's original worker finishing late, a
        retried HTTP POST — collapses onto the same row instead of
        corrupting the merge.
        """
        spec = self.attacks[index]
        payload = {
            "job": self.job_id(),
            "index": index,
            "attack": spec.to_dict(),
        }
        digest = hashlib.sha256(_canonical_json(payload).encode())
        return f"sh-{digest.hexdigest()[:32]}"

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "title": self.title,
            "source": self.source,
            "function": self.function,
            "args": list(self.args),
            "config": self.config.to_dict(),
            "attacks": [spec.to_dict() for spec in self.attacks],
            "initializers": [list(pair) for pair in self.initializers],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignJob":
        """Parse an envelope (:func:`job_from_dict` makes errors JobErrors)."""
        data = _check_envelope(data, cls.kind)
        return cls(
            source=data.get("source", ""),
            function=data.get("function", ""),
            args=tuple(data.get("args") or ()),
            config=CompileConfig.from_dict(data.get("config") or {}),
            attacks=tuple(
                AttackSpec.from_dict(spec) for spec in data.get("attacks") or ()
            ),
            initializers=tuple(
                tuple(pair) for pair in data.get("initializers") or ()
            ),
            title=data.get("title", ""),
        )

    # -- execution --------------------------------------------------------
    def execute(self, workbench, executor=None) -> dict[str, Any]:
        """Run the campaign synchronously; returns the result payload —
        every shard in attack order, merged exactly as the service's
        fleet coordinator merges them.

        ``executor`` — an optional
        :class:`~repro.toolchain.executor.CampaignExecutor` to shard each
        attack's trials across processes.
        """
        program = self.compile(workbench)
        return merge_shards(
            self,
            [
                self.run_shard(workbench, index, executor=executor, program=program)
                for index in range(len(self.attacks))
            ],
        )

    def run_shard(
        self,
        workbench,
        index: int,
        executor=None,
        emit: Optional[Callable[[dict], None]] = None,
        program=None,
    ) -> dict[str, Any]:
        """Run one attack of this campaign — the unit of work a fleet
        worker leases.  Returns the shard payload the coordinator merges:
        ``{"shard", "attack", "index", "scheme", "result"}``.

        Shard execution is deterministic (fixed golden run, exhaustive
        fault spaces, the forking engine with per-trial recording), so two
        workers running the same shard produce byte-identical payloads —
        the property the fleet's idempotent result merge rests on.

        ``executor`` — an optional
        :class:`~repro.toolchain.executor.CampaignExecutor` owned by the
        caller (its ``on_batch`` hook is borrowed for the attack, feeding
        ``emit`` per-batch progress events).  ``program`` pins the
        execution target for a caller that already compiled (e.g. to key
        a workload lock on the exact program object); re-consulting the
        cache here could return a *different* object for the same job.
        """
        emit = emit or (lambda payload: None)
        spec = self.attacks[index]
        if program is None:
            program = self.compile(workbench)
        result = self._run_attack(program, spec, executor, emit)
        if spec.label and spec.label != result.attack:
            result = dataclasses.replace(result, attack=spec.label)
        return {
            "shard": self.shard_id(index),
            "attack": result.attack,
            "index": index,
            "scheme": program.scheme,
            "result": attack_result_to_dict(result),
        }

    def _run_attack(self, program, spec, executor, emit):
        attack_fn = ATTACK_SUITES[spec.suite]
        kwargs = dict(spec.kwargs)
        # operand-corruption's window is a (lo, hi) pair that JSON turned
        # into a list; the adversary suite's window is a plain int width.
        if isinstance(kwargs.get("window"), list):
            kwargs["window"] = tuple(kwargs["window"])
        if executor is None:
            return attack_fn(
                program,
                self.function,
                list(self.args),
                record_trials=True,
                **kwargs,
            )

        def on_batch(done, total, trials_done, trial_count):
            emit(
                {
                    "event": "batch",
                    "attack": spec.default_label,
                    "batches_done": done,
                    "batch_count": total,
                    "trials_done": trials_done,
                    "trial_count": trial_count,
                }
            )

        executor.on_batch = on_batch
        try:
            return attack_fn(
                program,
                self.function,
                list(self.args),
                executor=executor,
                record_trials=True,
                **kwargs,
            )
        finally:
            executor.on_batch = None


def merge_shards(job: CampaignJob, payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """A campaign's result payload from its shard payloads, given in
    attack-spec order — so the report is the same bytes however, where
    and in whatever order the shards ran."""
    schemes = {payload["scheme"] for payload in payloads}
    if len(schemes) != 1:
        raise JobError(
            f"fleet shards disagree on the compiled scheme: "
            f"{sorted(schemes)} — are all workers running the same "
            f"scheme registry?"
        )
    return {
        "kind": job.kind,
        "job_id": job.job_id(),
        "scheme_revision": _scheme_revision(job.config),
        "report": {
            "scheme": payloads[0]["scheme"],
            "attacks": {payload["attack"]: payload["result"] for payload in payloads},
        },
    }


@dataclass(frozen=True)
class CompileJob(_SourceJob):
    """Compile-only job: warm the service cache / inspect code metrics."""

    kind = "compile"

    source: str
    config: CompileConfig = field(default_factory=CompileConfig)
    initializers: tuple[tuple[str, str], ...] = ()
    title: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.source, str) or not self.source.strip():
            raise JobError("compile job needs non-empty MiniC source text")
        if not isinstance(self.config, CompileConfig):
            raise JobError(
                f"config must be a CompileConfig, got {type(self.config).__name__}"
            )
        object.__setattr__(
            self, "initializers", _freeze_initializers(self.initializers)
        )
        _decode_initializers(self.initializers)

    def job_id(self) -> str:
        cached = self.__dict__.get("_job_id")
        if cached is None:
            from repro.toolchain.workbench import source_hash

            payload = {
                "v": JOB_SCHEMA_VERSION,
                "kind": self.kind,
                "source": source_hash(
                    self.source, _decode_initializers(self.initializers)
                ),
                "config": self.config.cache_key(),
            }
            digest = hashlib.sha256(_canonical_json(payload).encode())
            cached = f"bj-{digest.hexdigest()[:32]}"
            object.__setattr__(self, "_job_id", cached)
        return cached

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": JOB_SCHEMA_VERSION,
            "kind": self.kind,
            "title": self.title,
            "source": self.source,
            "config": self.config.to_dict(),
            "initializers": [list(pair) for pair in self.initializers],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CompileJob":
        """Parse an envelope (:func:`job_from_dict` makes errors JobErrors)."""
        data = _check_envelope(data, cls.kind)
        return cls(
            source=data.get("source", ""),
            config=CompileConfig.from_dict(data.get("config") or {}),
            initializers=tuple(
                tuple(pair) for pair in data.get("initializers") or ()
            ),
            title=data.get("title", ""),
        )

    def execute(self, workbench) -> dict[str, Any]:
        program = self.compile(workbench)
        return {
            "kind": self.kind,
            "job_id": self.job_id(),
            "scheme_revision": _scheme_revision(self.config),
            "scheme": program.scheme,
            "code_size": program.code_size,
            "functions": {
                name: program.size_of(name)
                for name in sorted(program.image.function_sizes)
            },
        }


def _scheme_revision(config: CompileConfig) -> int:
    """The current registration revision of the job's scheme.

    Job ids must stay stable across processes, so the revision cannot be
    part of the id (registration order is process-local); instead it is
    stamped into result payloads, and the scheduler's store-dedup layer
    re-executes when the stored revision no longer matches — mirroring
    how the Workbench cache key invalidates after
    ``register_scheme(replace=True)``.
    """
    from repro.toolchain.registry import get_scheme

    return get_scheme(config.scheme).revision


#: The JSON type of each job-envelope field.
_ENVELOPE_TYPES = {
    **dict.fromkeys(("kind", "title", "source", "function"), (str, "string")),
    **dict.fromkeys(("args", "attacks", "initializers"), (list, "array")),
    "config": (dict, "object"),
    "version": (int, "integer"),
}


def _check_envelope(data: Any, kind: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise JobError(f"job spec must be a JSON object, got {type(data).__name__}")
    for name, (expected, json_type) in _ENVELOPE_TYPES.items():
        value = data.get(name)
        if name in data and (not isinstance(value, expected) or isinstance(value, bool)):
            raise JobError(f"job field {name!r} must be a JSON {json_type}, got {value!r}")
    version = data.get("version", JOB_SCHEMA_VERSION)
    if version != JOB_SCHEMA_VERSION:
        raise JobError(
            f"unsupported job version {version!r} (this service speaks "
            f"{JOB_SCHEMA_VERSION})"
        )
    if data.get("kind", kind) != kind:
        raise JobError(f"expected a {kind!r} job, got kind={data.get('kind')!r}")
    return data


_JOB_KINDS = {CampaignJob.kind: CampaignJob, CompileJob.kind: CompileJob}


def job_from_dict(data: dict[str, Any]):
    """Parse a job envelope into the right job class by ``kind``; a
    malformed envelope raises :class:`JobError`."""
    if not isinstance(data, dict):
        raise JobError(f"job spec must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind", CampaignJob.kind)
    job_cls = _JOB_KINDS.get(kind) if isinstance(kind, str) else None
    if job_cls is None:
        raise JobError(f"unknown job kind {kind!r}; known: {sorted(_JOB_KINDS)}")
    try:
        return job_cls.from_dict(data)
    except JobError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # A well-typed envelope with malformed contents: args that are
        # not ints, attack kwargs that are not an object, ...
        raise JobError(f"malformed {kind} job: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Result (de)serialisation — AttackResult / CampaignReport <-> JSON
# ---------------------------------------------------------------------------
def attack_result_to_dict(result: AttackResult) -> dict[str, Any]:
    payload = {
        "attack": result.attack,
        "outcomes": {
            outcome.value: count for outcome, count in result.outcomes.items()
        },
        "trials": result.trials,
        "wrong_codes": list(result.wrong_codes),
        "simulated_cycles": result.simulated_cycles,
    }
    if result.records is not None:
        # Per-trial [fire_index, outcome, exit_code] rows: what the
        # vulnerability maps of repro.analysis are rebuilt from.
        payload["records"] = [list(row) for row in result.records]
    return payload


def attack_result_from_dict(data: dict[str, Any]) -> AttackResult:
    from repro.faults.classify import Outcome

    records = data.get("records")
    return AttackResult(
        attack=data["attack"],
        outcomes={
            Outcome(value): count
            for value, count in (data.get("outcomes") or {}).items()
        },
        trials=data.get("trials", 0),
        wrong_codes=list(data.get("wrong_codes") or ()),
        simulated_cycles=data.get("simulated_cycles", 0),
        records=None if records is None else [list(row) for row in records],
    )


def report_to_dict(report: CampaignReport) -> dict[str, Any]:
    return {
        "scheme": report.scheme,
        "attacks": {
            label: attack_result_to_dict(result)
            for label, result in report.attacks.items()
        },
    }


def report_from_dict(data: dict[str, Any]) -> CampaignReport:
    report = CampaignReport(scheme=data["scheme"])
    for label, result in (data.get("attacks") or {}).items():
        report.attacks[label] = attack_result_from_dict(result)
    return report
