"""Per-instruction vulnerability maps (docs/analysis.md walks the workflow).

A fault campaign's :class:`~repro.faults.isa_campaign.AttackResult`
tallies say *how many* trials ended exploitable; the paper's Table III
argument needs *where*: which instruction a fault must hit, in which
window, and which scheme closed it.  :class:`VulnerabilityMap` folds the
per-trial ``records`` rows of a campaign report back onto the static
program — each trial's golden fire index resolves through the workload's
:class:`~repro.faults.scheduler.GoldenTrace` to a code address, and the
:class:`~repro.isa.assembler.CodeImage` supplies the mnemonic, the
disassembled text, and the owning function (the closest thing a device
image has to source lines).

Composite (k-fault) trials are attributed to their *first* fault's
instruction — the trigger the adversary times everything else from.
Trials whose fault can never fire on the golden run (fire index 0) land
in the per-attack ``unlocated`` bucket instead of on an instruction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.faults.classify import Outcome
from repro.faults.isa_campaign import CampaignReport

#: Stable outcome-column order for renderers (the classify() enum order).
OUTCOME_ORDER = tuple(outcome.value for outcome in Outcome)

#: The outcome that means the attack succeeded undetected.
EXPLOITABLE = Outcome.WRONG_RESULT.value


class AnalysisError(ValueError):
    """A map/diff/table build that cannot proceed (usually: a report
    without per-trial records — re-run the campaign with
    ``record_trials=True`` or through ``CampaignBuilder``/the service)."""


def _merge(into: dict[str, int], outcome: str, count: int = 1) -> None:
    into[outcome] = into.get(outcome, 0) + count


@dataclass
class InstructionCell:
    """Everything the campaign learned about one static instruction."""

    addr: int
    mnemonic: str
    #: disassembled instruction text (``Instr.text()``)
    text: str
    #: owning function per the image's layout (None for out-of-range PCs)
    function: Optional[str]
    #: outcome value -> trial count, summed over every attack
    outcomes: dict[str, int] = field(default_factory=dict)
    #: attack label -> (outcome value -> trial count)
    attacks: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return sum(self.outcomes.values())

    @property
    def exploitable(self) -> int:
        """Trials that hit this instruction and forged an undetected
        wrong result — the residual-vulnerability count."""
        return self.outcomes.get(EXPLOITABLE, 0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "addr": self.addr,
            "mnemonic": self.mnemonic,
            "text": self.text,
            "function": self.function,
            "outcomes": dict(sorted(self.outcomes.items())),
            "attacks": {
                attack: dict(sorted(outcomes.items()))
                for attack, outcomes in sorted(self.attacks.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "InstructionCell":
        return cls(
            addr=int(data["addr"]),
            mnemonic=data["mnemonic"],
            text=data.get("text", ""),
            function=data.get("function"),
            outcomes=dict(data.get("outcomes") or {}),
            attacks={
                attack: dict(outcomes)
                for attack, outcomes in (data.get("attacks") or {}).items()
            },
        )


@dataclass
class VulnerabilityMap:
    """A campaign report folded onto the instructions it attacked."""

    scheme: str
    function: str
    args: list[int]
    #: cells in ascending address order
    cells: list[InstructionCell] = field(default_factory=list)
    #: attack label -> (outcome value -> count) for trials whose fault
    #: never fires on the golden run (or carries no fire index)
    unlocated: dict[str, dict[str, int]] = field(default_factory=dict)
    #: attack labels that carried per-trial records and are in the map
    attacks: list[str] = field(default_factory=list)
    #: attack labels present in the report but *without* records (their
    #: trials cannot be located; they are excluded from every tally here)
    skipped_attacks: list[str] = field(default_factory=list)
    #: machine target the program was compiled for — a map's addresses
    #: and mnemonics are target vocabulary, meaningless on another target
    target: str = "baseline"

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        program,
        function: str,
        args,
        report: CampaignReport,
    ) -> "VulnerabilityMap":
        """Fold ``report`` (whose attacks must carry per-trial records)
        onto ``program``'s instructions.

        Locating trials needs the workload's golden trace; the memoized
        :meth:`~repro.backend.driver.CompiledProgram.trial_scheduler` is
        consulted, so building a map from a finished campaign costs at
        most one golden execution and **zero** trial re-executions.
        """
        trace = program.trial_scheduler(function, list(args)).trace
        image = program.image
        by_addr: dict[int, InstructionCell] = {}
        vmap = cls(
            scheme=report.scheme,
            function=function,
            args=list(args),
            target=image.target,
        )
        for label, result in report.attacks.items():
            if result.records is None:
                vmap.skipped_attacks.append(label)
                continue
            vmap.attacks.append(label)
            for fire, outcome, _exit_code in result.records:
                located = trace.locate(fire) if fire >= 1 else None
                if located is None:
                    _merge(vmap.unlocated.setdefault(label, {}), outcome)
                    continue
                mnemonic, addr = located
                cell = by_addr.get(addr)
                if cell is None:
                    instr = image.instr_at.get(addr)
                    cell = by_addr[addr] = InstructionCell(
                        addr=addr,
                        mnemonic=mnemonic,
                        text=instr.text() if instr is not None else "",
                        function=image.function_of(addr),
                    )
                _merge(cell.outcomes, outcome)
                _merge(cell.attacks.setdefault(label, {}), outcome)
        if not vmap.attacks:
            raise AnalysisError(
                f"no attack in the {report.scheme!r} report carries per-trial "
                f"records (attacks: {sorted(report.attacks)}); run the "
                f"campaign with record_trials=True — CampaignBuilder and "
                f"service jobs record by default, and resubmitting a job "
                f"whose stored result predates recording re-executes it"
            )
        vmap.cells = [by_addr[addr] for addr in sorted(by_addr)]
        return vmap

    # -- queries -----------------------------------------------------------
    @property
    def trials(self) -> int:
        located = sum(cell.trials for cell in self.cells)
        stray = sum(
            sum(outcomes.values()) for outcomes in self.unlocated.values()
        )
        return located + stray

    def totals(self) -> dict[str, int]:
        """Outcome value -> trial count over the whole map (cells plus
        the unlocated bucket) — reproduces the report's merged tally."""
        totals: dict[str, int] = {}
        for cell in self.cells:
            for outcome, count in cell.outcomes.items():
                _merge(totals, outcome, count)
        for outcomes in self.unlocated.values():
            for outcome, count in outcomes.items():
                _merge(totals, outcome, count)
        return dict(sorted(totals.items()))

    def attack_totals(self) -> dict[str, dict[str, int]]:
        """Attack label -> (outcome value -> count), cells + unlocated."""
        totals: dict[str, dict[str, int]] = {label: {} for label in self.attacks}
        for cell in self.cells:
            for label, outcomes in cell.attacks.items():
                for outcome, count in outcomes.items():
                    _merge(totals.setdefault(label, {}), outcome, count)
        for label, outcomes in self.unlocated.items():
            for outcome, count in outcomes.items():
                _merge(totals.setdefault(label, {}), outcome, count)
        return {
            label: dict(sorted(outcomes.items()))
            for label, outcomes in sorted(totals.items())
        }

    def exploitable_cells(self) -> list[InstructionCell]:
        """Cells with at least one undetected wrong result, worst first."""
        return sorted(
            (cell for cell in self.cells if cell.exploitable),
            key=lambda cell: (-cell.exploitable, cell.addr),
        )

    @property
    def exploitable(self) -> int:
        return self.totals().get(EXPLOITABLE, 0)

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        data = {
            "kind": "vulnerability-map",
            "scheme": self.scheme,
            "function": self.function,
            "args": list(self.args),
            "attacks": list(self.attacks),
            "skipped_attacks": list(self.skipped_attacks),
            "cells": [cell.to_dict() for cell in self.cells],
            "unlocated": {
                label: dict(sorted(outcomes.items()))
                for label, outcomes in sorted(self.unlocated.items())
            },
            "totals": self.totals(),
        }
        # Baseline omitted so pre-multi-target stored maps stay
        # byte-identical under re-serialisation.
        if self.target != "baseline":
            data["target"] = self.target
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "VulnerabilityMap":
        if data.get("kind") not in (None, "vulnerability-map"):
            raise AnalysisError(
                f"expected a vulnerability-map payload, got kind="
                f"{data.get('kind')!r}"
            )
        return cls(
            scheme=data["scheme"],
            function=data["function"],
            args=[int(a) for a in data.get("args") or ()],
            cells=[InstructionCell.from_dict(c) for c in data.get("cells") or ()],
            unlocated={
                label: dict(outcomes)
                for label, outcomes in (data.get("unlocated") or {}).items()
            },
            attacks=list(data.get("attacks") or ()),
            skipped_attacks=list(data.get("skipped_attacks") or ()),
            target=data.get("target", "baseline"),
        )

    def to_json(self) -> str:
        """Canonical JSON text: key-sorted, 2-space indent, trailing
        newline.  Two maps built from the same report are byte-identical."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Plain-text rendering (see :mod:`repro.analysis.render`)."""
        from repro.analysis.render import render_map

        return render_map(self)


@dataclass
class CampaignAnalysis:
    """What ``CampaignBuilder.analyze()`` returns: the report plus its
    vulnerability map, with the workload context needed to diff."""

    program: Any
    function: str
    args: list[int]
    report: CampaignReport
    map: VulnerabilityMap

    @property
    def scheme(self) -> str:
        return self.report.scheme

    def diff(self, other: "CampaignAnalysis"):
        """Residual-vulnerability delta against another scheme's analysis
        of the same workload (see :class:`repro.analysis.diff.SchemeDiff`)."""
        from repro.analysis.diff import SchemeDiff

        return SchemeDiff.build(self.map, other.map)


def map_from_store(store, job_id: str, workbench=None) -> VulnerabilityMap:
    """Build a :class:`VulnerabilityMap` from a persisted campaign job.

    ``store`` is a :class:`~repro.service.store.ResultStore`; the job must
    be ``done`` with a stored result whose attacks carry per-trial
    records (service executions always record).  The job's program is
    (re)compiled through ``workbench`` — a cache hit for a live service —
    and only its golden run is consulted: no trial re-executes.
    """
    from repro.service.jobs import job_from_dict, report_from_dict

    record = store.get_job(job_id)
    if record is None:
        raise AnalysisError(f"unknown job {job_id!r}")
    job = job_from_dict(record.spec)
    if job.kind != "campaign":
        raise AnalysisError(
            f"job {job_id!r} is a {job.kind!r} job; maps need a campaign"
        )
    payload = store.get_result(job_id)
    if payload is None:
        raise AnalysisError(
            f"job {job_id!r} is {record.state} and has no stored result"
        )
    report = report_from_dict(payload["report"])
    if workbench is None:
        from repro.toolchain.workbench import Workbench

        workbench = Workbench()
    program = job.compile(workbench)
    return VulnerabilityMap.build(program, job.function, list(job.args), report)
