"""The docs cannot rot: every ``python`` snippet in ``docs/`` executes,
and every :class:`~repro.faults.models.FaultModel` subclass in the
codebase appears in the fault-model reference.

Snippet convention: fenced blocks tagged ``python`` are executed
cumulatively, top to bottom, in one namespace *per file* (so a page
reads as a single narrative).  Non-executable examples use other fence
tags (``bash``, ``json``, ``text``, ``mermaid``).
"""

import gc
import re
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: A socket left to the garbage collector fails the test that dropped it.
pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def python_snippets(page: Path) -> list[str]:
    return [match.group(1) for match in _FENCE.finditer(page.read_text())]


def doc_pages() -> list[Path]:
    pages = sorted(DOCS.glob("*.md"))
    assert pages, f"no documentation pages under {DOCS}"
    return pages


@pytest.mark.parametrize("page", doc_pages(), ids=lambda page: page.name)
def test_python_snippets_execute(page):
    snippets = python_snippets(page)
    namespace: dict = {}
    for index, snippet in enumerate(snippets):
        try:
            exec(compile(snippet, f"{page.name}[snippet {index}]", "exec"), namespace)
        except Exception as exc:  # noqa: BLE001 — surface which snippet broke
            pytest.fail(
                f"{page.name} snippet {index} raised "
                f"{type(exc).__name__}: {exc}\n---\n{snippet.strip()}\n---"
            )
    # A client a snippet left open is collected, and warns, inside the test.
    namespace.clear()
    gc.collect()


def _all_fault_model_subclasses():
    # Import every module that defines fault models, then walk the
    # subclass tree so new models register automatically.
    import repro.faults.adversary  # noqa: F401
    import repro.faults.models
    from repro.faults.models import FaultModel

    seen = set()
    frontier = [FaultModel]
    while frontier:
        cls = frontier.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                frontier.append(sub)
    # Only the library's own models owe the reference a row — test files
    # and user code may subclass FaultModel freely.
    return {cls for cls in seen if cls.__module__.startswith("repro.")}


def test_every_fault_model_is_documented():
    reference = (DOCS / "fault-models.md").read_text()
    missing = [
        cls.__name__
        for cls in _all_fault_model_subclasses()
        if f"`{cls.__name__}" not in reference
    ]
    assert not missing, (
        f"fault models missing from docs/fault-models.md: {sorted(missing)} "
        f"— add them to the reference table"
    )


def test_docs_are_cross_linked_from_readme():
    readme = (DOCS.parent / "README.md").read_text()
    for page in doc_pages():
        assert f"docs/{page.name}" in readme, (
            f"README.md does not link docs/{page.name}"
        )


def test_architecture_covers_every_subsystem():
    text = (DOCS / "architecture.md").read_text()
    for subsystem in (
        "repro.minic",
        "repro.ir",
        "repro.passes",
        "repro.backend",
        "repro.isa",
        "repro.cfi",
        "repro.faults",
        "repro.toolchain",
        "repro.service",
        "repro.analysis",
        "repro.spec",
        "repro.obs",
    ):
        assert subsystem in text, f"architecture.md never mentions {subsystem}"


def test_every_catalog_metric_is_documented():
    """The same contract the fault-model reference has: every series
    declared in repro.obs.catalog must appear (backticked) in the metric
    catalogue of docs/observability.md."""
    from repro.obs import CATALOG

    reference = (DOCS / "observability.md").read_text()
    missing = [name for name in CATALOG if f"`{name}`" not in reference]
    assert not missing, (
        f"metrics missing from docs/observability.md: {sorted(missing)} "
        f"— add them to the catalogue tables"
    )


_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")


def test_no_dead_intra_docs_links():
    """Every relative markdown link inside docs/ (and every docs/ link in
    the README) must point at a file that exists — the CI docs job fails
    on a dead link before a reader can."""
    pages = doc_pages() + [DOCS.parent / "README.md"]
    dead = []
    for page in pages:
        for match in _MD_LINK.finditer(page.read_text()):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue  # external links are out of scope
            resolved = (page.parent / target).resolve()
            if not resolved.exists():
                dead.append(f"{page.name} -> {target}")
    assert not dead, f"dead intra-docs links: {dead}"
