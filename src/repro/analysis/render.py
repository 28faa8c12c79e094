"""Plain-text renderers for the analysis values (benches, examples, CLI).

All three renderers produce the repo's usual fixed-width tables (the
:func:`repro.bench.tables.format_table` look) from the serialisable
analysis objects — they work equally on freshly built values and on
``from_dict``-reconstructed ones fetched over the service API, since they
only touch serialised fields.
"""

from __future__ import annotations

from repro.analysis.vulnmap import OUTCOME_ORDER, VulnerabilityMap
from repro.bench.tables import format_table


def _outcome_text(outcomes: dict) -> str:
    return ", ".join(
        f"{outcome}:{outcomes[outcome]}"
        for outcome in OUTCOME_ORDER
        if outcomes.get(outcome)
    ) or "-"


def render_map(vmap: VulnerabilityMap, max_cells: int | None = None) -> str:
    """The map as a per-instruction table, exploitable sites flagged.

    ``max_cells`` truncates long maps (the bootloader sweep touches
    hundreds of instructions); the summary lines always cover everything.
    """
    cells = vmap.cells
    truncated = 0
    if max_cells is not None and len(cells) > max_cells:
        # Keep every exploitable cell, then the most-hit remainder.
        keep = sorted(
            cells, key=lambda c: (-c.exploitable, -c.trials, c.addr)
        )[:max_cells]
        truncated = len(cells) - len(keep)
        cells = sorted(keep, key=lambda c: c.addr)
    rows = [
        [
            f"{cell.addr:#08x}",
            cell.function or "?",
            cell.mnemonic,
            cell.text,
            cell.trials,
            _outcome_text(cell.outcomes),
            "EXPLOITABLE" if cell.exploitable else "",
        ]
        for cell in cells
    ]
    lines = [
        format_table(
            f"Vulnerability map — {vmap.scheme}: {vmap.function}"
            f"({', '.join(map(str, vmap.args))})",
            ["Addr", "Function", "Mnemonic", "Instruction", "Trials", "Outcomes", ""],
            rows,
        )
    ]
    if truncated:
        lines.append(f"... {truncated} more instruction(s) elided")
    if vmap.unlocated:
        for label, outcomes in sorted(vmap.unlocated.items()):
            lines.append(f"unlocated [{label}]: {_outcome_text(outcomes)}")
    if vmap.skipped_attacks:
        lines.append(
            f"attacks without per-trial records (not mapped): "
            f"{', '.join(vmap.skipped_attacks)}"
        )
    totals = vmap.totals()
    lines.append(
        f"totals: trials={vmap.trials} {_outcome_text(totals)} | "
        f"exploitable instructions: {len(vmap.exploitable_cells())}"
    )
    return "\n".join(lines)


def render_diff(diff) -> str:
    """The scheme diff as an attack-by-attack verdict table."""
    rows = [
        [
            delta.attack,
            _outcome_text(delta.outcomes_a),
            _outcome_text(delta.outcomes_b),
            f"{delta.delta:+d}",
            delta.verdict.upper() if delta.verdict != "clean" else "clean",
        ]
        for delta in diff.attacks
    ]
    lines = [
        format_table(
            f"Scheme diff — {diff.scheme_a} (A) vs {diff.scheme_b} (B): "
            f"{diff.function}({', '.join(map(str, diff.args))})",
            ["Attack", f"A={diff.scheme_a}", f"B={diff.scheme_b}", "Δ exploit", "Verdict"],
            rows,
        )
    ]
    for side, scheme, residual in (
        ("A", diff.scheme_a, diff.residual_a),
        ("B", diff.scheme_b, diff.residual_b),
    ):
        if residual:
            sites = ", ".join(
                f"{site['function'] or '?'}+{site['addr']:#x} "
                f"{site['mnemonic']} (x{site['exploitable']})"
                for site in residual[:8]
            )
            more = len(residual) - min(len(residual), 8)
            lines.append(
                f"residual sites [{side}={scheme}]: {sites}"
                + (f", ... {more} more" if more > 0 else "")
            )
        else:
            lines.append(f"residual sites [{side}={scheme}]: none")
    for label, attacks in (
        ("closed by B", diff.closed),
        ("opened by B", diff.opened),
        ("still open", diff.still_open),
    ):
        if attacks:
            lines.append(f"{label}: {', '.join(attacks)}")
    return "\n".join(lines)


def render_table3(reproduction) -> str:
    """The reproduced Table III, ranked best scheme first."""
    rows = []
    for rank, row in enumerate(reproduction.rows, start=1):
        rows.append(
            [
                rank,
                row.scheme,
                row.undetected_wrong,
                ", ".join(row.defeated_by) or "-",
                "; ".join(
                    f"{attack}: {_outcome_text(outcomes)}"
                    for attack, outcomes in row.attacks.items()
                ),
            ]
        )
    target = reproduction.target
    target_note = "" if target == "baseline" else f" [target: {target}]"
    return format_table(
        f"Table III reproduction — {reproduction.function}"
        f"({', '.join(map(str, reproduction.args))}) "
        f"[source: {reproduction.source}]{target_note}",
        ["Rank", "Scheme", "Undetected wrong", "Defeated by", "Per-attack outcomes"],
        rows,
    )
