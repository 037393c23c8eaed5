"""Result containers and plain-text rendering for experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["ExperimentResult", "format_table", "format_series"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [
        max(len(str(c)), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)
    ]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(r[i].ljust(widths[i]) for i in range(len(columns)))
                     for r in cells)
    return f"{header}\n{sep}\n{body}"


def format_series(series: Dict[str, Dict], x_label: str = "x") -> str:
    """Render ``{series_name: {x: y}}`` as one aligned table, x as rows."""
    if not series:
        return "(no series)"
    xs = sorted({x for ys in series.values() for x in ys})
    rows = []
    for x in xs:
        row = {x_label: x}
        for name, ys in series.items():
            row[name] = ys.get(x, "")
        rows.append(row)
    return format_table(rows)


@dataclass
class ExperimentResult:
    """One experiment's regenerated artifact plus its provenance."""

    experiment_id: str
    title: str
    scale: str
    rows: List[Dict] = field(default_factory=list)
    series: Dict[str, Dict] = field(default_factory=dict)
    x_label: str = "x"
    notes: List[str] = field(default_factory=list)
    paper_values: List[str] = field(default_factory=list)
    shape_failures: List[str] = field(default_factory=list)
    #: critical-path time attribution (``--report-breakdown``): rows of
    #: {category, seconds, share}, categories summing to the total row.
    breakdown: List[Dict] = field(default_factory=list)
    #: traced communication matrix: rows of {src_node, dst_node,
    #: messages, bytes}, aggregated over every run in the experiment.
    comm_matrix: List[Dict] = field(default_factory=list)
    #: True when the run was sanitized (``--sanitize``); lets render()
    #: distinguish "clean" from "not checked".
    sanitized: bool = False
    #: dynamic-sanitizer findings (``--sanitize``): rows of
    #: {checker, threads, time, phase, message} from repro.analyze.
    sanitizer_findings: List[Dict] = field(default_factory=list)
    #: campaign counters ({points, executed, cache_hits}) — populated
    #: only when a result cache was in play, so uncached reports render
    #: byte-identically to the pre-campaign harness.
    campaign: Dict = field(default_factory=dict)
    #: quarantined points from a degraded durable campaign: rows of
    #: {point, app, fingerprint, attempts, error}.  Non-empty only when
    #: the queue executor gave up on a poison point; the rest of the
    #: campaign still completed and this result carries the partial
    #: outcome instead of an aborted run.
    failures: List[Dict] = field(default_factory=list)

    @property
    def shape_ok(self) -> bool:
        return not self.shape_failures

    def render(self) -> str:
        parts = [f"## {self.title} [{self.experiment_id}, scale={self.scale}]", ""]
        if self.rows:
            parts += [format_table(self.rows), ""]
        if self.series:
            parts += [format_series(self.series, self.x_label), ""]
        if self.breakdown:
            rows = [
                {**r, "share": f"{100 * r['share']:.1f}%"} for r in self.breakdown
            ]
            parts += ["Simulated-time breakdown (critical path):",
                      format_table(rows), ""]
        if self.comm_matrix:
            parts += ["Communication matrix (src node -> dst node):",
                      format_table(self.comm_matrix), ""]
        if self.failures:
            parts += ["Failed points (quarantined after retries):",
                      format_table(
                          self.failures,
                          columns=["point", "app", "fingerprint",
                                   "attempts", "error"],
                      ), ""]
        if self.sanitizer_findings:
            parts += ["Sanitizer findings:",
                      format_table(
                          self.sanitizer_findings,
                          columns=["checker", "threads", "time", "phase",
                                   "message"],
                      ), ""]
        elif self.sanitized:
            parts += ["Sanitizer: clean (0 findings)", ""]
        if self.paper_values:
            parts.append("Paper reported:")
            parts += [f"  - {p}" for p in self.paper_values]
            parts.append("")
        if self.notes:
            parts += [f"Note: {n}" for n in self.notes]
            parts.append("")
        if self.campaign:
            parts.append(
                f"Campaign: {self.campaign.get('points', 0)} point(s), "
                f"{self.campaign.get('executed', 0)} executed, "
                f"{self.campaign.get('cache_hits', 0)} cache hit(s)"
            )
            parts.append("")
        status = "OK" if self.shape_ok else "SHAPE MISMATCH"
        parts.append(f"Shape check: {status}")
        for f in self.shape_failures:
            parts.append(f"  ! {f}")
        return "\n".join(parts)
