"""Residual-vulnerability deltas between two schemes on one workload.

Table III's argument is comparative: duplication closes the single-flip
hole CFI-only leaves open, the AN-code prototype closes the repeated-flip
hole duplication leaves open.  :class:`SchemeDiff` states that delta
mechanically from two :class:`~repro.analysis.vulnmap.VulnerabilityMap`\\ s
of the *same* (function, args) workload compiled under two schemes.

Schemes compile to different code, so instructions do not correspond
address-for-address; the diff therefore compares at two levels:

* **per attack** — outcome tallies side by side plus a verdict:
  ``closed`` (A exploitable, B clean), ``opened`` (the reverse),
  ``still-open`` (both exploitable), ``clean`` (neither);
* **per side** — each scheme's own residual sites (the exploitable cells
  of its map: address, mnemonic, owning function, forge count), which is
  where "which instruction is still a single point of failure" is read
  off.

Composite k-fault attacks (PR 4's ``k-fault-adversary`` suite) diff like
any other attack label — their trials are attributed to the first fault's
instruction by the map layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.vulnmap import EXPLOITABLE, AnalysisError, VulnerabilityMap

#: Attack verdict values, in severity order for renderers.
VERDICTS = ("opened", "still-open", "closed", "clean")


@dataclass
class AttackDelta:
    """One attack label's outcome tallies under scheme A vs scheme B."""

    attack: str
    outcomes_a: dict[str, int] = field(default_factory=dict)
    outcomes_b: dict[str, int] = field(default_factory=dict)

    @property
    def exploitable_a(self) -> int:
        return self.outcomes_a.get(EXPLOITABLE, 0)

    @property
    def exploitable_b(self) -> int:
        return self.outcomes_b.get(EXPLOITABLE, 0)

    @property
    def delta(self) -> int:
        """Exploitable-trial change B − A (negative = B is safer)."""
        return self.exploitable_b - self.exploitable_a

    @property
    def verdict(self) -> str:
        if self.exploitable_a and not self.exploitable_b:
            return "closed"
        if self.exploitable_b and not self.exploitable_a:
            return "opened"
        if self.exploitable_a and self.exploitable_b:
            return "still-open"
        return "clean"

    def to_dict(self) -> dict[str, Any]:
        return {
            "attack": self.attack,
            "outcomes_a": dict(sorted(self.outcomes_a.items())),
            "outcomes_b": dict(sorted(self.outcomes_b.items())),
            "exploitable_a": self.exploitable_a,
            "exploitable_b": self.exploitable_b,
            "delta": self.delta,
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttackDelta":
        return cls(
            attack=data["attack"],
            outcomes_a=dict(data.get("outcomes_a") or {}),
            outcomes_b=dict(data.get("outcomes_b") or {}),
        )


def _residual_sites(vmap: VulnerabilityMap) -> list[dict[str, Any]]:
    return [
        {
            "addr": cell.addr,
            "mnemonic": cell.mnemonic,
            "text": cell.text,
            "function": cell.function,
            "exploitable": cell.exploitable,
        }
        for cell in vmap.exploitable_cells()
    ]


@dataclass
class SchemeDiff:
    """Scheme A vs scheme B on one workload, attack by attack."""

    scheme_a: str
    scheme_b: str
    function: str
    args: list[int]
    attacks: list[AttackDelta] = field(default_factory=list)
    #: attack labels present on only one side (not diffable)
    only_a: list[str] = field(default_factory=list)
    only_b: list[str] = field(default_factory=list)
    #: each side's exploitable cells (addr/mnemonic/function/count)
    residual_a: list[dict] = field(default_factory=list)
    residual_b: list[dict] = field(default_factory=list)

    @classmethod
    def build(cls, a: VulnerabilityMap, b: VulnerabilityMap) -> "SchemeDiff":
        """Diff two maps of the same (function, args) workload."""
        if (a.function, list(a.args)) != (b.function, list(b.args)):
            raise AnalysisError(
                f"maps cover different workloads: "
                f"{a.function}{tuple(a.args)} vs {b.function}{tuple(b.args)}"
                f" — a scheme diff needs the same program input on both sides"
            )
        if a.target != b.target:
            raise AnalysisError(
                f"maps cover different machine targets: {a.target!r} vs "
                f"{b.target!r} — per-site addresses/mnemonics are target "
                f"vocabulary; compare cross-target rankings with "
                f"reproduce_table3(target=...) instead"
            )
        totals_a = a.attack_totals()
        totals_b = b.attack_totals()
        shared = [label for label in totals_a if label in totals_b]
        diff = cls(
            scheme_a=a.scheme,
            scheme_b=b.scheme,
            function=a.function,
            args=list(a.args),
            attacks=[
                AttackDelta(label, totals_a[label], totals_b[label])
                for label in shared
            ],
            only_a=sorted(set(totals_a) - set(totals_b)),
            only_b=sorted(set(totals_b) - set(totals_a)),
            residual_a=_residual_sites(a),
            residual_b=_residual_sites(b),
        )
        return diff

    # -- queries -----------------------------------------------------------
    @property
    def closed(self) -> list[str]:
        """Attacks scheme B closed (A exploitable, B clean)."""
        return [d.attack for d in self.attacks if d.verdict == "closed"]

    @property
    def opened(self) -> list[str]:
        return [d.attack for d in self.attacks if d.verdict == "opened"]

    @property
    def still_open(self) -> list[str]:
        return [d.attack for d in self.attacks if d.verdict == "still-open"]

    @property
    def exploitable_delta(self) -> int:
        """Total exploitable-trial change B − A over shared attacks."""
        return sum(d.delta for d in self.attacks)

    # -- serialisation -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "scheme-diff",
            "scheme_a": self.scheme_a,
            "scheme_b": self.scheme_b,
            "function": self.function,
            "args": list(self.args),
            "attacks": [d.to_dict() for d in self.attacks],
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "residual_a": list(self.residual_a),
            "residual_b": list(self.residual_b),
            "closed": self.closed,
            "opened": self.opened,
            "still_open": self.still_open,
            "exploitable_delta": self.exploitable_delta,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SchemeDiff":
        if data.get("kind") not in (None, "scheme-diff"):
            raise AnalysisError(
                f"expected a scheme-diff payload, got kind={data.get('kind')!r}"
            )
        return cls(
            scheme_a=data["scheme_a"],
            scheme_b=data["scheme_b"],
            function=data["function"],
            args=[int(a) for a in data.get("args") or ()],
            attacks=[AttackDelta.from_dict(d) for d in data.get("attacks") or ()],
            only_a=list(data.get("only_a") or ()),
            only_b=list(data.get("only_b") or ()),
            residual_a=[dict(site) for site in data.get("residual_a") or ()],
            residual_b=[dict(site) for site in data.get("residual_b") or ()],
        )

    def to_json(self) -> str:
        """Canonical JSON text (key-sorted, 2-space indent, newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        from repro.analysis.render import render_diff

        return render_diff(self)


def diff_from_store(store, job_a: str, job_b: str, workbench=None) -> SchemeDiff:
    """Diff two persisted campaign jobs (same workload, two schemes).

    Both jobs are loaded via :func:`repro.analysis.vulnmap.map_from_store`
    — stored results only, no trial re-execution.  One workbench serves
    both compilations so a live service pays two cache hits.  The jobs
    must attack the same program input: identical (source, initializers)
    content and (function, args) — only the scheme may differ.  The maps'
    own (function, args) check cannot see the program content, so it is
    verified here from the job specs.
    """
    from repro.analysis.vulnmap import map_from_store
    from repro.service.jobs import _decode_initializers, job_from_dict
    from repro.toolchain.workbench import source_hash

    def identity(job_id: str):
        record = store.get_job(job_id)
        if record is None:
            raise AnalysisError(f"unknown job {job_id!r}")
        job = job_from_dict(record.spec)
        if job.kind != "campaign":
            raise AnalysisError(
                f"job {job_id!r} is a {job.kind!r} job; diffs need campaigns"
            )
        return (
            source_hash(job.source, _decode_initializers(job.initializers) or None),
            job.function,
            tuple(job.args),
        )

    if identity(job_a) != identity(job_b):
        raise AnalysisError(
            f"jobs {job_a!r} and {job_b!r} cover different workloads "
            f"(source/initializers/function/args must match; only the "
            f"scheme may differ)"
        )
    if workbench is None:
        from repro.toolchain.workbench import Workbench

        workbench = Workbench()
    return SchemeDiff.build(
        map_from_store(store, job_a, workbench),
        map_from_store(store, job_b, workbench),
    )
