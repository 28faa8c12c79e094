"""Reproduce the paper's Table III security comparison from campaign data.

Table III's qualitative ranking — CFI-only falls to a single branch
flip, duplication to a repeated flip, the AN-code prototype to neither —
previously lived only as ad-hoc assertions inside
``benchmarks/bench_security_isa_campaign.py``.  :func:`reproduce_table3`
rebuilds the table as a first-class value from any of three sources, in
precedence order:

1. ``reports`` — scheme -> :class:`~repro.faults.isa_campaign.
   CampaignReport` the caller already holds;
2. ``store`` — a :class:`~repro.service.store.ResultStore`: the canonical
   per-scheme jobs (:func:`table3_jobs`, stable content-hash ids) are
   answered from persisted results without re-executing a trial, while
   they are current (:func:`repro.service.jobs.current_result`); a stale
   row is re-run and overwritten;
3. a :class:`~repro.toolchain.workbench.Workbench` — the campaigns run
   in-process (the default when neither of the above is given).

The canonical campaign matches the bench: ``single-flip`` (one branch
flip at the protected decision), ``repeated-flip`` (the
duplication-defeating repeated glitch), and a full ``skip-sweep``,
against ``integer_compare(7, 7)`` under every registered Table III
scheme.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.analysis.vulnmap import EXPLOITABLE, AnalysisError
from repro.faults.isa_campaign import CampaignReport

#: The canonical Table III attacks: (label, wire suite, kwargs).
TABLE3_ATTACKS = (
    ("single-flip", "branch-flip", {"max_branches": 1}),
    ("repeated-flip", "repeated-branch-flip", {}),
    ("skip-sweep", "skip-sweep", {}),
)

#: The canonical workload (the paper's minimal protected decision).
TABLE3_WORKLOAD = ("integer_compare", "integer_compare", (7, 7))


def table3_jobs(schemes=None, target: str = "baseline") -> dict:
    """The canonical Table III campaign per scheme, as serialisable
    :class:`~repro.service.jobs.CampaignJob` values.  Content-hash job
    ids make these the lookup keys for store-backed reproduction — run
    them through a service once and every later
    :func:`reproduce_table3(store=...) <reproduce_table3>` is free.
    ``target`` selects the machine target; the config's content hash
    keys it, so per-target jobs never collide in a store."""
    from repro.programs import load_source
    from repro.service.jobs import AttackSpec, CampaignJob
    from repro.toolchain.config import CompileConfig
    from repro.toolchain.registry import table3_schemes

    program_name, function, args = TABLE3_WORKLOAD
    source = load_source(program_name)
    return {
        scheme: CampaignJob(
            source=source,
            function=function,
            args=args,
            config=CompileConfig(scheme=scheme, target=target),
            attacks=tuple(
                AttackSpec.make(suite, label=label, **kwargs)
                for label, suite, kwargs in TABLE3_ATTACKS
            ),
            title=(
                f"table3/{scheme}"
                if target == "baseline"
                else f"table3/{target}/{scheme}"
            ),
        )
        for scheme in (schemes or table3_schemes())
    }


@dataclass
class Table3Row:
    """One scheme's line of the reproduced table."""

    scheme: str
    #: attack label -> (outcome value -> count)
    attacks: dict[str, dict[str, int]] = field(default_factory=dict)

    def exploitable(self, attack: str) -> int:
        return self.attacks.get(attack, {}).get(EXPLOITABLE, 0)

    @property
    def undetected_wrong(self) -> int:
        """Total undetected wrong results across all attacks — the number
        the ranking sorts on (0 = survives the whole single-fault table)."""
        return sum(self.exploitable(attack) for attack in self.attacks)

    @property
    def defeated_by(self) -> list[str]:
        return [a for a in self.attacks if self.exploitable(a) > 0]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scheme": self.scheme,
            "attacks": {
                attack: dict(sorted(outcomes.items()))
                for attack, outcomes in self.attacks.items()
            },
            "undetected_wrong": self.undetected_wrong,
            "defeated_by": self.defeated_by,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Table3Row":
        return cls(
            scheme=data["scheme"],
            attacks={
                attack: dict(outcomes)
                for attack, outcomes in (data.get("attacks") or {}).items()
            },
        )


@dataclass
class Table3Reproduction:
    """The reproduced Table III: one row per scheme, ranked best-first."""

    function: str
    args: list[int]
    rows: list[Table3Row] = field(default_factory=list)
    #: where each row's report came from: "reports", "store", or "run"
    source: str = "run"
    #: machine target the campaigns ran on (side-by-side reproductions
    #: compare rankings across targets)
    target: str = "baseline"

    def __post_init__(self) -> None:
        self.rows.sort(key=lambda row: (row.undetected_wrong, row.scheme))

    @property
    def ranking(self) -> list[str]:
        """Schemes best-first (fewest undetected wrong results; ties
        break alphabetically, matching the build sort)."""
        return [row.scheme for row in self.rows]

    def row(self, scheme: str) -> Table3Row:
        for row in self.rows:
            if row.scheme == scheme:
                return row
        raise KeyError(scheme)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "kind": "table3-reproduction",
            "function": self.function,
            "args": list(self.args),
            "source": self.source,
            "ranking": self.ranking,
            "rows": [row.to_dict() for row in self.rows],
        }
        # Baseline omitted for byte-stability of pre-multi-target dumps.
        if self.target != "baseline":
            data["target"] = self.target
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Table3Reproduction":
        return cls(
            function=data["function"],
            args=[int(a) for a in data.get("args") or ()],
            rows=[Table3Row.from_dict(row) for row in data.get("rows") or ()],
            source=data.get("source", "run"),
            target=data.get("target", "baseline"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        from repro.analysis.render import render_table3

        return render_table3(self)


def table3_report(
    program, function, args, executor=None, engine: str = "fork",
    max_skips: Optional[int] = None,
) -> CampaignReport:
    """Run the canonical Table III attacks against one compiled program.

    The building block for reproducing the table on workloads beyond the
    canonical ``integer_compare`` — run it per scheme on any device
    program (on any target) and feed the results to
    :func:`reproduce_table3(reports=...) <reproduce_table3>`.  ``engine``
    selects the trial engine (``"fork"`` or the ``"reference"``
    oracle).  ``max_skips`` bounds the
    ``skip-sweep`` to the first N dynamic instructions — required for
    long-running programs (the bootloader retires millions of
    instructions, so an unbounded one-trial-per-instruction sweep is
    intractable); the branch decisions the table ranks on sit in that
    prefix.
    """
    from repro.service.jobs import ATTACK_SUITES

    report = CampaignReport(scheme=program.scheme)
    for label, suite, kwargs in TABLE3_ATTACKS:
        if suite == "skip-sweep" and max_skips is not None:
            kwargs = {**kwargs, "last": max_skips}
        result = ATTACK_SUITES[suite](
            program, function, list(args), executor=executor, engine=engine,
            **kwargs
        )
        if result.attack != label:
            result = dataclasses.replace(result, attack=label)
        report.attacks[label] = result
    return report


def _row_from_report(scheme: str, report: CampaignReport) -> Table3Row:
    return Table3Row(
        scheme=scheme,
        attacks={
            label: {
                outcome.value: count for outcome, count in result.outcomes.items()
            }
            for label, result in report.attacks.items()
        },
    )


def reproduce_table3(
    workbench=None,
    *,
    reports: Optional[dict] = None,
    store=None,
    schemes=None,
    executor=None,
    require_stored: bool = False,
    target: str = "baseline",
    workload: Optional[tuple] = None,
) -> Table3Reproduction:
    """Rebuild Table III (see module docstring for the source precedence).

    With ``store``, schemes whose canonical job has no stored result fall
    back to an in-process run — pass ``require_stored=True`` to raise
    instead (strict no-re-execution mode).  ``executor`` shards any
    in-process runs across a
    :class:`~repro.toolchain.executor.CampaignExecutor`.

    ``target`` reruns the whole table on another machine target (e.g.
    ``"rv32"``) — the headline cross-target question is whether the
    scheme *ranking* survives a different branch architecture.

    ``workload`` (``(function, args)``) labels a ``reports``-sourced
    reproduction built from another device program (see
    :func:`table3_report`); it only adjusts the displayed workload — the
    canonical store/run paths always use :data:`TABLE3_WORKLOAD`.
    """
    from repro.toolchain.registry import table3_schemes

    _, function, args = TABLE3_WORKLOAD
    if workload is not None:
        if reports is None:
            raise AnalysisError(
                "workload= only labels a reports-sourced reproduction; "
                "build per-program reports with table3_report first"
            )
        function, args = workload
    schemes = tuple(schemes or table3_schemes())
    rows: list[Table3Row] = []
    if reports is not None:
        missing = [s for s in schemes if s not in reports]
        if missing:
            raise AnalysisError(f"reports missing schemes: {missing}")
        return Table3Reproduction(
            function=function,
            args=list(args),
            rows=[_row_from_report(s, reports[s]) for s in schemes],
            source="reports",
            target=target,
        )

    jobs = table3_jobs(schemes, target=target)
    stored: dict[str, CampaignReport] = {}
    if store is not None:
        from repro.service.jobs import current_result

        for scheme, job in jobs.items():
            payload = current_result(store, job)
            if payload is not None:
                stored[scheme] = _report_of(payload)
        if require_stored and len(stored) < len(schemes):
            missing = sorted(set(schemes) - set(stored))
            raise AnalysisError(
                f"store has no result for Table III jobs of schemes "
                f"{missing}; submit table3_jobs() first or drop "
                f"require_stored"
            )

    if workbench is None and len(stored) < len(schemes):
        from repro.toolchain.workbench import Workbench

        workbench = Workbench()
    for scheme in schemes:
        report = stored.get(scheme)
        if report is None:
            job = jobs[scheme]
            payload = job.execute(workbench, executor=executor)
            report = _report_of(payload)
            if store is not None:
                store.record_job(job.job_id(), job.kind, job.to_dict())
                store.store_result(job.job_id(), payload)
        rows.append(_row_from_report(scheme, report))
    source = "store" if store is not None and len(stored) == len(schemes) else "run"
    return Table3Reproduction(
        function=function, args=list(args), rows=rows, source=source,
        target=target,
    )


def _report_of(payload: dict) -> CampaignReport:
    from repro.service.jobs import report_from_dict

    return report_from_dict(payload["report"])
