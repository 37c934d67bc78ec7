"""``repro compare``: one workload, N regimes, side by side.

Runs the same :class:`~repro.workload.ScenarioConfig` (volume, seed,
days, boosts — everything except the ``regime`` field) through each
requested regime profile on the sharded engine, then tabulates what
each deployment did to identical traffic: block rates, the mechanism
mix (per censor-exception volume), the error surface, and how well
each regime's recovery analysis re-derives its own rules.  This is
the proof that the profile abstraction carries analysis, not just
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.overview import traffic_breakdown
from repro.logmodel.classify import CENSOR_EXCEPTIONS, NO_EXCEPTION
from repro.pipeline import BATCH_SIZE
from repro.regimes.base import RuleRecovery, get_regime
from repro.reporting.tables import render_table
from repro.workload import ScenarioConfig

DEFAULT_COMPARE_REGIMES: tuple[str, ...] = (
    "syria",
    "pakistan",
    "turkmenistan",
)


@dataclass(frozen=True)
class RegimeSummary:
    """One regime's column of the comparison."""

    regime: str
    description: str
    mechanisms: tuple[str, ...]
    total: int
    allowed_pct: float
    censored_pct: float
    error_pct: float
    proxied_pct: float
    #: censor-exception id -> rows (the mechanism mix).
    mechanism_mix: dict[str, int]
    #: error-exception id -> rows (the error surface).
    error_surface: dict[str, int]
    recoveries: tuple[RuleRecovery, ...]


@dataclass(frozen=True)
class RegimeComparison:
    """The full cross-regime comparison over one shared workload."""

    config: ScenarioConfig
    summaries: tuple[RegimeSummary, ...]

    def summary_for(self, regime: str) -> RegimeSummary:
        for summary in self.summaries:
            if summary.regime == regime:
                return summary
        raise KeyError(f"no summary for regime {regime!r}")


def summarize_regime(regime: str, datasets) -> RegimeSummary:
    """Summarize one regime's run for the comparison table."""
    profile = get_regime(regime)
    frame = datasets.full
    breakdown = traffic_breakdown(frame)
    mechanism_mix: dict[str, int] = {}
    error_surface: dict[str, int] = {}
    for row in breakdown.exception_rows:
        if row.exception_id == NO_EXCEPTION:
            continue
        if row.exception_id in CENSOR_EXCEPTIONS:
            mechanism_mix[row.exception_id] = row.count
        else:
            error_surface[row.exception_id] = row.count
    return RegimeSummary(
        regime=regime,
        description=profile.description,
        mechanisms=profile.mechanisms,
        total=breakdown.total,
        allowed_pct=breakdown.allowed_pct,
        censored_pct=breakdown.censored_pct,
        error_pct=breakdown.denied_pct - breakdown.censored_pct,
        proxied_pct=breakdown.proxied_pct,
        mechanism_mix=mechanism_mix,
        error_surface=error_surface,
        recoveries=profile.recover_rules(frame, datasets.policy),
    )


def compare_regimes(
    config: ScenarioConfig,
    regimes: tuple[str, ...] = DEFAULT_COMPARE_REGIMES,
    *,
    workers: int = 1,
    batch_size: int = BATCH_SIZE,
    metrics=None,
    retry=None,
    allow_partial: bool = False,
    failures=None,
    fault_plan=None,
) -> RegimeComparison:
    """Run the shared workload through every regime and summarize.

    Each regime gets ``replace(config, regime=name)`` — same volume,
    same seed, same days — so every difference in the table is the
    deployment's doing, not the workload's.

    *retry*, *allow_partial*, *failures*, and *fault_plan* thread
    through to every regime's :func:`run_sharded` dispatch, so a
    comparison under chaos behaves like any other sharded command:
    with ``allow_partial=True`` a quarantined day drops out of that
    regime's datasets (its summary covers the surviving days; the
    shared *failures* report names which shards, per regime).
    """
    from repro.engine.simulate import build_scenario_sharded

    for name in regimes:
        get_regime(name)  # fail fast on unknown names, before any work
    summaries = []
    for name in regimes:
        datasets = build_scenario_sharded(
            replace(config, regime=name),
            workers=workers,
            batch_size=batch_size,
            metrics=metrics,
            retry=retry,
            allow_partial=allow_partial,
            failures=failures,
            fault_plan=fault_plan,
        )
        summaries.append(summarize_regime(name, datasets))
    return RegimeComparison(config=config, summaries=tuple(summaries))


def _metric_rows(comparison: RegimeComparison) -> list[list[str]]:
    """The table body: one row per metric, one column per regime."""
    summaries = comparison.summaries

    def row(label, cell):
        return [label] + [cell(s) for s in summaries]

    rows = [
        row("requests", lambda s: f"{s.total:,}"),
        row("allowed %", lambda s: f"{s.allowed_pct:.2f}"),
        row("censored %", lambda s: f"{s.censored_pct:.2f}"),
        row("errors %", lambda s: f"{s.error_pct:.2f}"),
        row("proxied %", lambda s: f"{s.proxied_pct:.2f}"),
    ]
    mechanism_ids = sorted(
        {exception for s in summaries for exception in s.mechanism_mix}
    )
    for exception in mechanism_ids:
        rows.append(row(
            f"mechanism {exception}",
            lambda s, e=exception: str(s.mechanism_mix.get(e, 0)),
        ))
    error_ids = sorted(
        {exception for s in summaries for exception in s.error_surface}
    )
    for exception in error_ids:
        rows.append(row(
            f"error {exception}",
            lambda s, e=exception: str(s.error_surface.get(e, 0)),
        ))
    kinds: list[str] = []
    for summary in summaries:
        for recovery in summary.recoveries:
            if recovery.kind not in kinds:
                kinds.append(recovery.kind)

    def recovery_cell(summary: RegimeSummary, kind: str, fmt) -> str:
        for recovery in summary.recoveries:
            if recovery.kind == kind:
                return fmt(recovery)
        return "-"

    for kind in kinds:
        rows.append(row(
            f"recovered {kind}",
            lambda s, k=kind: recovery_cell(
                s, k, lambda r: f"{len(r.recovered)}/{len(r.truth)}"
            ),
        ))
        rows.append(row(
            f"precision {kind}",
            lambda s, k=kind: recovery_cell(s, k, lambda r: f"{r.precision:.2f}"),
        ))
        rows.append(row(
            f"recall {kind}",
            lambda s, k=kind: recovery_cell(s, k, lambda r: f"{r.recall:.2f}"),
        ))
    return rows


def comparison_table(comparison: RegimeComparison) -> str:
    """Render the comparison as an aligned ASCII table."""
    headers = ["Metric"] + [s.regime for s in comparison.summaries]
    title = (
        f"Regime comparison — {comparison.config.total_requests:,} "
        f"requests, seed {comparison.config.seed}"
    )
    return render_table(headers, _metric_rows(comparison), title=title)


def comparison_to_markdown(comparison: RegimeComparison) -> str:
    """Render the comparison as a Markdown pipe table."""
    headers = ["Metric"] + [s.regime for s in comparison.summaries]
    lines = [
        f"# Regime comparison — {comparison.config.total_requests:,} "
        f"requests, seed {comparison.config.seed}",
        "",
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in _metric_rows(comparison):
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    lines.append("")
    for summary in comparison.summaries:
        lines.append(
            f"- **{summary.regime}** — {summary.description} "
            f"(mechanisms: {', '.join(summary.mechanisms)})"
        )
    return "\n".join(lines) + "\n"


def comparison_to_json(comparison: RegimeComparison) -> dict:
    """The comparison as a JSON-ready dict (``repro compare --json``)."""
    return {
        "schema": "repro.compare/1",
        "requests": comparison.config.total_requests,
        "seed": comparison.config.seed,
        "regimes": [
            {
                "regime": s.regime,
                "description": s.description,
                "mechanisms": list(s.mechanisms),
                "requests": s.total,
                "allowed_pct": s.allowed_pct,
                "censored_pct": s.censored_pct,
                "error_pct": s.error_pct,
                "proxied_pct": s.proxied_pct,
                "mechanism_mix": dict(sorted(s.mechanism_mix.items())),
                "error_surface": dict(sorted(s.error_surface.items())),
                "recoveries": [
                    {
                        "kind": r.kind,
                        "recovered": len(r.recovered),
                        "truth": len(r.truth),
                        "precision": r.precision,
                        "recall": r.recall,
                    }
                    for r in s.recoveries
                ],
            }
            for s in comparison.summaries
        ],
    }
