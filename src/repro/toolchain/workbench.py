"""Cached compilation and a fluent campaign builder.

The fault-evaluation loop compiles the same few programs under many
configurations (schemes x policies x parameter sweeps) over and over; the
``Workbench`` makes the repeats free:

* an LRU cache keyed on ``(sha256(source), config.cache_key())``, so a
  repeated (source, config) pair compiles once and counts as a hit,
* ``campaign()`` — a fluent builder chaining the stock attack suites of
  :mod:`repro.faults.isa_campaign` against one compiled program::

      report = (
          workbench.campaign(source, "integer_compare", [7, 7])
          .attack(skip_sweep)
          .attack(branch_flip_sweep, max_branches=8)
          .run()
      )
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional, Sequence, Union

from repro.backend.driver import CompiledProgram
from repro.faults.isa_campaign import AttackResult, CampaignReport
from repro.minic.driver import compile_source
from repro.toolchain.config import CompileConfig

#: An attack suite: ``fn(program, function, args, **kwargs) -> AttackResult``
#: (the free functions in :mod:`repro.faults.isa_campaign` all qualify).
AttackFn = Callable[..., AttackResult]

#: (source hash, config hash, scheme registration revision).
CacheKey = tuple[str, str, int]

#: Global initializers installed into the parsed module before compiling:
#: a mapping of global-variable name -> raw little-endian bytes (the
#: device-image pattern of :mod:`repro.crypto.image`).
Initializers = Optional[dict[str, bytes]]


def source_hash(source: str, initializers: Initializers = None) -> str:
    """Stable hex hash of a MiniC source text (plus any installed
    global initializers, which change the produced binary).

    Every field is length-framed before hashing — plain concatenation
    would let distinct (source, initializers) splits collide, and this
    hash feeds both the compile-cache key and service job ids.
    """
    if not initializers:
        return hashlib.sha256(source.encode()).hexdigest()
    digest = hashlib.sha256()
    encoded = source.encode()
    digest.update(len(encoded).to_bytes(8, "big") + encoded)
    for name in sorted(initializers):
        encoded_name, data = name.encode(), bytes(initializers[name])
        digest.update(len(encoded_name).to_bytes(8, "big") + encoded_name)
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def _compile_with_initializers(
    source: str, config: CompileConfig, initializers: dict[str, bytes]
) -> CompiledProgram:
    from repro.backend.driver import compile_ir
    from repro.minic.driver import parse_to_ir

    module = parse_to_ir(source, config.module_name)
    for name in sorted(initializers):
        glob = module.globals.get(name)
        if glob is None:
            raise KeyError(
                f"initializer targets unknown global {name!r}; module "
                f"declares: {sorted(module.globals)}"
            )
        glob.initializer = bytes(initializers[name])
    return compile_ir(module, config=config)


class Workbench:
    """Compile MiniC programs through the Figure 3 pipeline, memoized."""

    def __init__(self, cache_size: int = 128):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        self.cache_size = cache_size
        self._cache: OrderedDict[CacheKey, CompiledProgram] = OrderedDict()
        self._lock = threading.Lock()
        #: Cache hits / real compilations performed, for tests and benches.
        self.hits = 0
        self.misses = 0

    # -- cache plumbing ---------------------------------------------------
    def cache_key(
        self,
        source: str,
        config: CompileConfig,
        initializers: Initializers = None,
    ) -> CacheKey:
        # The scheme's registration revision invalidates entries whose
        # builder was since replaced via register_scheme(replace=True).
        from repro.toolchain.registry import get_scheme

        return (
            source_hash(source, initializers),
            config.cache_key(),
            get_scheme(config.scheme).revision,
        )

    def _lookup(self, key: CacheKey) -> Optional[CompiledProgram]:
        with self._lock:
            program = self._cache.get(key)
            if program is not None:
                self._cache.move_to_end(key)
                self.hits += 1
            return program

    def _insert(self, key: CacheKey, program: CompiledProgram) -> None:
        with self._lock:
            self.misses += 1
            self._cache[key] = program
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    @property
    def cached_programs(self) -> int:
        return len(self._cache)

    # -- compilation ------------------------------------------------------
    def compile(
        self,
        source: str,
        config: Optional[CompileConfig] = None,
        initializers: Initializers = None,
    ) -> CompiledProgram:
        """Compile ``source`` under ``config`` (default ``CompileConfig()``),
        returning the cached program for a repeated (source, config) pair.

        ``initializers`` optionally installs raw bytes into named module
        globals between parsing and compilation (the pattern
        :func:`repro.crypto.image.prepare_bootloader_module` uses to flash
        a boot image); they participate in the cache key.
        """
        config = config if config is not None else CompileConfig()
        key = self.cache_key(source, config, initializers)
        program = self._lookup(key)
        if program is None:
            if initializers:
                program = _compile_with_initializers(source, config, initializers)
            else:
                program = compile_source(source, config=config)
            self._insert(key, program)
        return program

    # -- campaigns --------------------------------------------------------
    def campaign(
        self,
        program: Union[str, CompiledProgram],
        function: str,
        args: Optional[Sequence[int]] = None,
        config: Optional[CompileConfig] = None,
        initializers: Initializers = None,
    ) -> "CampaignBuilder":
        """Start a fluent fault campaign against ``program``.

        ``program`` is either an already-compiled :class:`CompiledProgram`
        or MiniC source text, compiled (cached) under ``config``.  Source-
        built campaigns remember their (source, config) pair, so the
        builder can also be shipped to a campaign service
        (``.run(service=...)`` / ``.to_job()``).
        """
        source = None
        if isinstance(program, str):
            source = program
            program = self.compile(program, config, initializers)
        elif config is not None or initializers:
            raise ValueError(
                "config/initializers apply at compile time; they cannot be "
                "combined with an already-compiled program — pass source "
                "text instead"
            )
        return CampaignBuilder(
            program,
            function,
            list(args or []),
            source=source,
            config=config,
            initializers=dict(initializers) if initializers else None,
        )


class CampaignBuilder:
    """Chains attack suites against one compiled program, then runs them."""

    def __init__(
        self,
        program: CompiledProgram,
        function: str,
        args: list[int],
        source: Optional[str] = None,
        config: Optional[CompileConfig] = None,
        initializers: Initializers = None,
    ):
        self.program = program
        self.function = function
        self.args = args
        self._source = source
        self._config = config if config is not None else CompileConfig()
        self._initializers = initializers
        self._attacks: list[tuple[Optional[str], AttackFn, dict[str, Any]]] = []

    def attack(
        self, attack_fn: AttackFn, *, name: Optional[str] = None, **kwargs: Any
    ) -> "CampaignBuilder":
        """Queue ``attack_fn(program, function, args, **kwargs)``; returns
        self for chaining.  ``name`` overrides the result's attack label."""
        self._attacks.append((name, attack_fn, kwargs))
        return self

    def adversary(
        self,
        k: int = 2,
        window: int = 16,
        *,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> "CampaignBuilder":
        """Queue a pruned k-fault adversary sweep (multi-fault trials).

        Sugar for ``.attack(adversary_sweep, k=k, window=window, ...)`` —
        see :func:`repro.faults.adversary.adversary_sweep` for the
        pruning knobs (``second_kinds``, ``focus``, ``max_first``,
        ``prune_terminal``).  Serialises to a service job like any stock
        suite.
        """
        from repro.faults.adversary import adversary_sweep

        return self.attack(adversary_sweep, name=name, k=k, window=window, **kwargs)

    def speculative(
        self,
        window: int = 8,
        predictor: str = "twobit",
        *,
        name: Optional[str] = None,
        **kwargs: Any,
    ) -> "CampaignBuilder":
        """Queue a speculative-execution sweep (predictor-targeted faults
        under a bounded transient window).

        Sugar for ``.attack(speculative_sweep, window=window,
        predictor=predictor, ...)`` — see :func:`repro.spec.campaign.
        speculative_sweep` for the sweep knobs (``kinds``,
        ``poison_patterns``, ``focus``, ``max_branches``).  Serialises to
        a service job like any stock suite.
        """
        from repro.spec.campaign import speculative_sweep

        return self.attack(
            speculative_sweep, name=name, window=window, predictor=predictor,
            **kwargs,
        )

    def run(
        self,
        executor=None,
        engine: Optional[str] = None,
        service=None,
    ) -> CampaignReport:
        """Execute every queued attack and collect a :class:`CampaignReport`.

        ``executor`` — a :class:`~repro.toolchain.executor.CampaignExecutor`
        (or a worker count, pooled for the duration of this run) to shard
        trials across processes.  ``engine`` forces a trial engine
        (``"fork"`` or ``"reference"``) on the attack suites that support
        one.  Either is forwarded only to attack functions whose signature
        accepts the corresponding keyword.

        ``service`` — run the campaign on a :mod:`repro.service` instance
        instead of in-process: a
        :class:`~repro.service.client.ServiceClient` or a ``"host:port"``
        address.  The campaign is serialised to a
        :class:`~repro.service.jobs.CampaignJob` (see :meth:`to_job`),
        submitted, and its stored/streamed result converted back into the
        same :class:`CampaignReport` a local run produces.
        """
        if not self._attacks:
            raise ValueError("campaign has no attacks; chain .attack(...) first")
        if service is not None:
            if executor is not None or engine not in (None, "fork"):
                raise ValueError(
                    "service campaigns always run with engine='fork' on the "
                    "service's own executors; drop executor/engine"
                )
            return self._run_service(service)
        owned_executor = None
        if isinstance(executor, int):
            from repro.toolchain.executor import CampaignExecutor

            executor = owned_executor = CampaignExecutor(max_workers=executor)
        try:
            return self._run(executor, engine)
        finally:
            if owned_executor is not None:
                owned_executor.close()

    def analyze(
        self,
        executor=None,
        engine: Optional[str] = None,
        service=None,
    ):
        """Run the campaign and fold it into a per-instruction
        vulnerability map: the fluent terminal of :mod:`repro.analysis`.

        Same execution semantics as :meth:`run` (including ``service=``),
        but returns a :class:`~repro.analysis.vulnmap.CampaignAnalysis`
        bundling the report with its
        :class:`~repro.analysis.vulnmap.VulnerabilityMap`;
        ``analysis_a.diff(analysis_b)`` then answers "what did the other
        scheme close".  Map construction happens locally either way and
        costs one (memoized) golden run — no trial re-executes.
        """
        from repro.analysis.vulnmap import CampaignAnalysis, VulnerabilityMap

        report = self.run(executor=executor, engine=engine, service=service)
        vmap = VulnerabilityMap.build(
            self.program, self.function, self.args, report
        )
        return CampaignAnalysis(
            program=self.program,
            function=self.function,
            args=list(self.args),
            report=report,
            map=vmap,
        )

    def to_job(self, title: str = ""):
        """This campaign as a serialisable
        :class:`~repro.service.jobs.CampaignJob`.

        Requires the builder to have been created from source text (so the
        service can compile it) and every queued attack to be one of the
        named stock suites in :data:`repro.service.jobs.ATTACK_SUITES`.
        """
        from repro.service.jobs import AttackSpec, CampaignJob, suite_name_for

        if self._source is None:
            raise ValueError(
                "campaign was built from a precompiled program; service "
                "jobs need source text — use workbench.campaign(source, ...)"
            )
        specs = tuple(
            AttackSpec.make(
                suite_name_for(attack_fn),
                label=name,
                # record_trials is an execution-mode knob, not part of the
                # campaign: the service always records (its stored results
                # must build maps), so a local override cannot ship.
                **{k: v for k, v in kwargs.items() if k != "record_trials"},
            )
            for name, attack_fn, kwargs in self._attacks
        )
        return CampaignJob(
            source=self._source,
            function=self.function,
            args=tuple(self.args),
            config=self._config,
            attacks=specs,
            initializers=tuple(
                (name, bytes(data).hex())
                for name, data in sorted((self._initializers or {}).items())
            ),
            title=title,
        )

    def _run_service(self, service) -> CampaignReport:
        from repro.service.client import ServiceClient
        from repro.service.jobs import report_from_dict

        if isinstance(service, ServiceClient):
            payload = service.run(self.to_job())
        else:
            with ServiceClient.parse(service) as client:
                payload = client.run(self.to_job())
        return report_from_dict(payload["report"])

    def _run(self, executor, engine: Optional[str]) -> CampaignReport:
        import inspect

        report = CampaignReport(scheme=self.program.scheme)
        for name, attack_fn, kwargs in self._attacks:
            call_kwargs = dict(kwargs)
            try:
                accepted = inspect.signature(attack_fn).parameters
            except (TypeError, ValueError):  # builtins/partials without sigs
                accepted = {}
            if executor is not None and "executor" in accepted:
                call_kwargs.setdefault("executor", executor)
            if engine is not None and "engine" in accepted:
                call_kwargs.setdefault("engine", engine)
            # Builder campaigns always carry per-trial records, so every
            # report feeds repro.analysis (maps/diffs) and every service
            # result is identical to a direct run.  Override per attack
            # with .attack(fn, record_trials=False).
            if "record_trials" in accepted:
                call_kwargs.setdefault("record_trials", True)
            result = attack_fn(self.program, self.function, self.args, **call_kwargs)
            label = name or result.attack
            if label != result.attack:
                import dataclasses

                result = dataclasses.replace(result, attack=label)
            if label in report.attacks:
                raise ValueError(
                    f"duplicate attack label {label!r}; disambiguate with "
                    f".attack(fn, name=...)"
                )
            report.attacks[label] = result
        return report
