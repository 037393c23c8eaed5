"""Flow-aware static PGAS analyzer (DESIGN.md §14).

The pipeline: :mod:`.loader` parses a tree into a :class:`Project`
(modules + symbol table), :mod:`.cfg` builds per-function control-flow
graphs, :mod:`.callgraph` resolves calls and computes effect summaries,
and the passes walk SPMD functions:

* :mod:`.legacy`        — PGAS001-004 (the original linter, re-homed);
* :mod:`.alignment`     — PGAS010 collective alignment;
* :mod:`.privatization` — PGAS011 privatization candidates;
* :mod:`.hoisting`      — PGAS012 loop-invariant remote accesses.

``# noqa: PGASxxx`` suppresses a finding on its line; ids must name a
known rule or they are themselves findings (PGAS009).  The CLI
(``python -m repro.analyze.static``) emits a canonical JSON report and
gates against the committed ``analyze-baseline.json`` (``--check``);
see :mod:`.baseline` for the ratchet semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analyze.findings import RULES, StaticFinding
from repro.analyze.static import (
    alignment, hoisting, legacy, privatization,
)
from repro.analyze.static.callgraph import CallGraph
from repro.analyze.static.cfg import build_cfg
from repro.analyze.static.dataflow import analyze_taint
from repro.analyze.static.loader import (
    FunctionInfo, ModuleInfo, Project, load_sources, load_tree,
)

__all__ = [
    "AnalysisResult", "analyze_project", "analyze_tree", "analyze_source",
    "load_tree", "load_sources", "Project",
]

_NOQA_RE = re.compile(r"#\s*noqa:\s*([A-Z0-9, ]+)")
#: Ids in our namespace: only these are audited against RULES, so other
#: tools' codes on shared noqa lines (E402, BLE001...) pass through.
_PGAS_ID_RE = re.compile(r"PGAS\d+")


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced (post-noqa, sorted)."""

    findings: List[StaticFinding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    functions: int = 0


def _noqa_map(module: ModuleInfo) -> Dict[int, Tuple[int, Set[str]]]:
    """``lineno -> (column, codes)`` for every noqa comment in a module."""
    table: Dict[int, Tuple[int, Set[str]]] = {}
    for lineno, line in enumerate(module.lines, start=1):
        match = _NOQA_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            table[lineno] = (match.start(), codes)
    return table


def _apply_noqa(project: Project,
                findings: List[StaticFinding]) -> Tuple[List[StaticFinding], int]:
    """Suppress per-line, flag unknown PGAS ids (PGAS009), sort, dedup."""
    tables = {}
    audited = list(findings)
    for module in project.modules:
        tables[module.path] = table = _noqa_map(module)
        for lineno, (col, codes) in table.items():
            for code in sorted(codes):
                if _PGAS_ID_RE.fullmatch(code) and code not in RULES:
                    audited.append(StaticFinding(
                        path=module.path, line=lineno, col=col,
                        rule="PGAS009",
                        symbol=module.function_at(lineno),
                        message=(f"unknown rule id {code!r} in noqa "
                                 "suppression: it suppresses nothing "
                                 "(known ids: PGAS000-PGAS012)"),
                    ))
    kept: List[StaticFinding] = []
    suppressed = 0
    for f in audited:
        entry = tables.get(f.path, {}).get(f.line)
        if entry is not None and f.rule in entry[1]:
            suppressed += 1
        else:
            kept.append(f)
    return sorted(set(kept)), suppressed


def analyze_project(project: Project, flow: bool = True) -> AnalysisResult:
    """Run every pass over an already-loaded project."""
    findings: List[StaticFinding] = []
    functions = 0
    for module in project.modules:
        if module.tree is None:
            exc = module.syntax_error
            findings.append(StaticFinding(
                path=module.path, line=exc.lineno or 0, col=exc.offset or 0,
                rule="PGAS000", symbol="",
                message=f"syntax error: {exc.msg}",
            ))
            continue
        findings.extend(legacy.run(module))
    if flow:
        callgraph = CallGraph(project)

        def analyze_fn(fn: FunctionInfo, seed: frozenset) -> None:
            nonlocal functions
            cfg = build_cfg(fn.node)
            taint = analyze_taint(cfg, seed)
            if fn.is_spmd:
                functions += 1
                findings.extend(alignment.run(fn, taint, callgraph))
                findings.extend(privatization.run(fn))
                findings.extend(hoisting.run(fn, cfg, callgraph))
            # seed closures with captures tainted anywhere in this scope
            ever: Set[str] = set()
            for env in taint.entry_env.values():
                ever |= env
            for env in taint.exit_env.values():
                ever |= env
            for child in fn.children.values():
                analyze_fn(child, frozenset(ever & child.free_names()))

        for module in project.modules:
            for fn in module.functions:
                if fn.parent is None:
                    analyze_fn(fn, frozenset())
    kept, suppressed = _apply_noqa(project, findings)
    return AnalysisResult(
        findings=kept,
        suppressed=suppressed,
        files=len(project.modules),
        functions=functions,
    )


def analyze_tree(root, flow: bool = True) -> AnalysisResult:
    """Load and analyze every ``*.py`` under a package directory."""
    return analyze_project(load_tree(root), flow=flow)


def analyze_source(source: str, path: str = "<string>",
                   flow: bool = True) -> AnalysisResult:
    """Analyze one source string (tests, fixtures)."""
    return analyze_project(load_sources([(source, path)]), flow=flow)
