"""Fault-coverage analytics over campaign results (docs/analysis.md).

The campaign stack answers "how many trials ended exploitable"; this
package answers the paper's actual evaluation questions:

* :class:`VulnerabilityMap` — *which instruction* each fault had to hit,
  per-outcome, built from a report's per-trial records with zero trial
  re-execution (:func:`map_from_store` does it straight from a persisted
  service job);
* :class:`SchemeDiff` — *what did scheme B close that scheme A left
  open*, attack by attack, with each side's residual exploitable sites;
* :func:`reproduce_table3` — the paper's Table III ranking rebuilt from
  live runs, caller-held reports, or stored campaign results.

Entry points elsewhere: ``CampaignBuilder.analyze()`` (fluent),
:func:`map_from_store` / :func:`diff_from_store` (a stored job),
``GET /jobs/<id>/map`` and ``GET /diff?a=..&b=..`` plus
``python -m repro.service map|diff`` (service).
"""

from repro.analysis.diff import (
    AttackDelta,
    SchemeDiff,
    diff_from_store,
)
from repro.analysis.render import render_diff, render_map, render_table3
from repro.analysis.table3 import (
    TABLE3_ATTACKS,
    TABLE3_WORKLOAD,
    Table3Reproduction,
    Table3Row,
    reproduce_table3,
    table3_jobs,
)
from repro.analysis.vulnmap import (
    EXPLOITABLE,
    OUTCOME_ORDER,
    AnalysisError,
    CampaignAnalysis,
    InstructionCell,
    VulnerabilityMap,
    map_from_store,
)

__all__ = [
    "AnalysisError",
    "AttackDelta",
    "CampaignAnalysis",
    "EXPLOITABLE",
    "InstructionCell",
    "OUTCOME_ORDER",
    "SchemeDiff",
    "TABLE3_ATTACKS",
    "TABLE3_WORKLOAD",
    "Table3Reproduction",
    "Table3Row",
    "VulnerabilityMap",
    "diff_from_store",
    "map_from_store",
    "render_diff",
    "render_map",
    "render_table3",
    "reproduce_table3",
    "table3_jobs",
]
