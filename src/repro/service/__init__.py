"""Campaign-as-a-service: threaded job queue, persistent results, HTTP API.

The serving tier over the compile/attack stack (S13):

* :mod:`repro.service.jobs` — frozen, serialisable job specs
  (:class:`CampaignJob` / :class:`CompileJob`) with stable content-hash
  job ids, named attack suites, and the one shard merge every campaign
  result is built with;
* :mod:`repro.service.queue` — the job scheduler (:class:`JobScheduler`):
  dedup in flight / via the store / via the Workbench compile cache,
  runner threads that claim shards locally, one commit thread that
  stores and then publishes every job event, cancellation;
* :mod:`repro.service.store` — SQLite :class:`ResultStore` with schema
  versioning; finished campaigns survive restarts and are never
  re-executed;
* :mod:`repro.service.http` — streaming stdlib HTTP API
  (:class:`ServiceServer`, a thread per connection, NDJSON progress)
  plus the :class:`BackgroundService` thread harness;
* :mod:`repro.service.client` — blocking :class:`ServiceClient`
  (``submit``/``status``/``stream``/``results``) with connect/read
  timeouts and bounded retry-with-backoff (:class:`RetryPolicy`), the
  transport behind ``CampaignBuilder.run(service=...)``;
* :mod:`repro.service.fleet` — the shard queue and the distributed
  worker fleet: :class:`FleetCoordinator` (the only queue: shards leased
  in priority order to remote workers or claimed by runner threads,
  heartbeat expiry, work-stealing, idempotent content-keyed results)
  and :class:`FleetRunner` (the worker loop behind ``python -m
  repro.service worker``);
* :mod:`repro.service.chaos` — deterministic fault injection for the
  service itself (:class:`WorkerChaos`, :class:`ChaosProxy`,
  :class:`CrashingStore`), used by the resilience test suite and the
  chaos CI job;
* :mod:`repro.service.top` — the live terminal view behind ``python -m
  repro.service top`` (:func:`render_top` is pure and unit-testable);
* :mod:`repro.service.cli` — ``python -m repro.service
  serve|worker|submit|status|results|top``.

Observability (:mod:`repro.obs`) threads through the whole tier: the
scheduler owns a :class:`~repro.obs.metrics.MetricsRegistry` shared with
the fleet coordinator, serves it on ``GET /metrics``, and records one
span trace per job (``GET /jobs/<id>/trace``) — see
``docs/observability.md``.

Submodules load lazily (PEP 562): importing :mod:`repro.service` itself
does not pull in the compiler stack or the simulator.
"""

from __future__ import annotations

_EXPORTS = {
    "ATTACK_SUITES": "repro.service.jobs",
    "AttackSpec": "repro.service.jobs",
    "CampaignJob": "repro.service.jobs",
    "CompileJob": "repro.service.jobs",
    "JobError": "repro.service.jobs",
    "job_from_dict": "repro.service.jobs",
    "report_from_dict": "repro.service.jobs",
    "report_to_dict": "repro.service.jobs",
    "ResultStore": "repro.service.store",
    "SchemaMismatchError": "repro.service.store",
    "StoreError": "repro.service.store",
    "JobScheduler": "repro.service.queue",
    "UnknownJobError": "repro.service.queue",
    "BackgroundService": "repro.service.http",
    "ServiceServer": "repro.service.http",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "RetryPolicy": "repro.service.client",
    "FleetCoordinator": "repro.service.fleet",
    "FleetRunner": "repro.service.fleet",
    "FleetStats": "repro.service.fleet",
    "ChaosProxy": "repro.service.chaos",
    "ChaosSchedule": "repro.service.chaos",
    "CrashingStore": "repro.service.chaos",
    "SimulatedCrash": "repro.service.chaos",
    "WorkerChaos": "repro.service.chaos",
    "render_top": "repro.service.top",
    "run_top": "repro.service.top",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
