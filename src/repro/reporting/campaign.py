"""Campaign reports: coverage summaries and per-fault listings.

Renders the results of any simulator campaign (conventional, [4],
proposed, unrestricted) as a human-readable report or CSV, with the
derived statistics a test engineer expects: fault coverage, MOT-only
recoveries, abort counts, expansion effort histograms.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.circuit.netlist import Circuit
from repro.mot.simulator import Campaign, FaultVerdict
from repro.reporting.tables import Table

#: ``how`` tags an ``"undetected"`` verdict may legitimately carry:
#: nothing, or the [4] sequence-limit abort.  Anything else is counted
#: explicitly in :attr:`CampaignSummary.unclassified` rather than being
#: silently folded into the undetected bucket.
KNOWN_UNDETECTED_HOW = frozenset(("", "aborted"))


@dataclass
class CampaignSummary:
    """Derived statistics of one MOT campaign.

    ``undetected`` counts only cleanly undetected faults;
    ``aborted_budget`` counts faults whose per-fault budget ran out,
    ``errored`` counts faults quarantined after an exception, and
    ``unclassified`` maps unknown ``how`` tags on undetected verdicts to
    their counts.  The buckets partition the campaign::

        conventional + mot_extra + dropped + undetected
        + aborted_budget + errored + sum(unclassified.values()) == total
    """

    circuit: str
    total: int
    conventional: int
    mot_extra: int
    dropped: int
    undetected: int
    aborted: int
    coverage_percent: float
    how_breakdown: Dict[str, int]
    expansion_histogram: Dict[int, int]
    errored: int = 0
    aborted_budget: int = 0
    unclassified: Dict[str, int] = field(default_factory=dict)
    #: Faults the dispatcher confirmed to kill/stall their worker
    #: process (``errored`` verdicts with ``how == "poison"``); a
    #: subset of ``errored``.
    poisoned: int = 0
    #: Faults whose verdict was inherited from an equivalence-class
    #: representative rather than simulated (``expanded_from`` set);
    #: zero for uncollapsed and structurally collapsed campaigns.
    expanded: int = 0


def dedupe_verdicts(campaign: Campaign) -> Campaign:
    """Collapse duplicate per-fault verdicts, last write wins.

    A fault can legitimately appear twice when campaigns are merged
    by hand from overlapping journals -- e.g. two interrupted runs of
    the same campaign.  Counting
    both entries would corrupt every derived statistic (coverage over
    an inflated total), so the summary keeps only the **last** verdict
    recorded for each fault, with a warning naming the fault, and the
    original campaign is left untouched.
    """
    by_fault: Dict[object, FaultVerdict] = {}
    for verdict in campaign.verdicts:
        fault = verdict.fault
        key = (fault.line, fault.stuck_at, fault.pin)
        if key in by_fault:
            warnings.warn(
                f"campaign {campaign.circuit_name!r} holds multiple "
                f"verdicts for fault {fault}; keeping the last "
                f"(last write wins)",
                stacklevel=3,
            )
        by_fault[key] = verdict
    if len(by_fault) == len(campaign.verdicts):
        return campaign
    return Campaign(
        circuit_name=campaign.circuit_name,
        verdicts=list(by_fault.values()),
    )


def summarize_campaign(campaign: Campaign) -> CampaignSummary:
    """Compute :class:`CampaignSummary` for *campaign*.

    Duplicate per-fault verdicts (possible when journals are merged by
    hand) are collapsed last-write-wins first, with a
    warning, so no fault is ever double-counted.
    """
    campaign = dedupe_verdicts(campaign)
    how = Counter(v.how for v in campaign.verdicts if v.status == "mot")
    expansions = Counter(
        v.num_expansions for v in campaign.verdicts if v.status == "mot"
    )
    aborted = sum(
        1
        for v in campaign.verdicts
        if v.status == "undetected" and v.how == "aborted"
    )
    unclassified = Counter(
        v.how
        for v in campaign.verdicts
        if v.status == "undetected" and v.how not in KNOWN_UNDETECTED_HOW
    )
    total = campaign.total
    detected = campaign.total_detected
    return CampaignSummary(
        circuit=campaign.circuit_name,
        total=total,
        conventional=campaign.conv_detected,
        mot_extra=campaign.mot_detected,
        dropped=campaign.count("dropped"),
        undetected=campaign.count("undetected") - sum(unclassified.values()),
        aborted=aborted,
        coverage_percent=100.0 * detected / total if total else 0.0,
        how_breakdown=dict(how),
        expansion_histogram=dict(expansions),
        errored=campaign.errored,
        aborted_budget=campaign.aborted_budget,
        unclassified=dict(unclassified),
        poisoned=sum(
            1
            for v in campaign.verdicts
            if v.status == "errored" and v.how == "poison"
        ),
        expanded=sum(1 for v in campaign.verdicts if v.expanded_from),
    )


def render_campaign_report(
    campaign: Campaign,
    circuit: Circuit,
    list_faults: bool = False,
) -> str:
    """Render a full textual report of *campaign*."""
    summary = summarize_campaign(campaign)
    lines: List[str] = [
        f"fault simulation report: {summary.circuit}",
        f"  faults simulated      : {summary.total}",
        f"  detected conventionally: {summary.conventional}",
        f"  detected via MOT       : {summary.mot_extra}",
        f"  dropped (condition C)  : {summary.dropped}",
        f"  undetected             : {summary.undetected}"
        + (f" ({summary.aborted} aborted at the sequence limit)"
           if summary.aborted else ""),
        f"  fault coverage         : {summary.coverage_percent:.2f}%",
    ]
    if summary.expanded:
        lines.insert(
            2,
            f"  expanded from classes  : {summary.expanded} "
            f"({summary.total - summary.expanded} simulated)",
        )
    if summary.aborted_budget:
        lines.insert(
            -1,
            f"  aborted (budget)       : {summary.aborted_budget}",
        )
    if summary.errored:
        poison_note = (
            f" ({summary.poisoned} poison: killed their worker)"
            if summary.poisoned else ""
        )
        lines.insert(
            -1,
            f"  errored (quarantined)  : {summary.errored}{poison_note}",
        )
    if summary.unclassified:
        tags = ", ".join(
            f"{tag!r}: {count}"
            for tag, count in sorted(summary.unclassified.items())
        )
        lines.insert(
            -1,
            f"  unclassified verdicts  : "
            f"{sum(summary.unclassified.values())} ({tags})",
        )
    if summary.how_breakdown:
        lines.append("  MOT detections by mechanism:")
        labels = {
            "info": "Section 3.2 (implications alone)",
            "phase1": "mutually conflicting restrictions",
            "resim": "resimulation after expansion",
            "expansion": "plain expansion",
            "fallback": "forward-selection fallback",
            "unrestricted": "unrestricted (multi-reference)",
        }
        for key, count in sorted(summary.how_breakdown.items()):
            lines.append(f"    {labels.get(key, key):38s} {count}")
    if list_faults:
        lines.append("  per-fault verdicts:")
        for verdict in campaign.verdicts:
            lines.append(
                f"    {verdict.fault.describe(circuit):30s} "
                f"{verdict.status}"
                + (f" ({verdict.how})" if verdict.how else "")
            )
    return "\n".join(lines) + "\n"


def render_supervision_report(stats) -> str:
    """One-line-per-fact summary of what a supervised run did.

    *stats* is a :class:`repro.runner.supervisor.SupervisorStats` (its
    ``dispatch`` field holds the dispatcher's record).  Returns ``""``
    when nothing had to intervene, so callers can print the result
    unconditionally.
    """
    dispatch = stats.dispatch
    facts = [
        ("leases expired/reassigned", dispatch.leases_expired),
        ("straggler leases stolen  ", dispatch.leases_stolen),
        ("duplicate verdicts dropped", dispatch.duplicates),
        ("stalled workers killed   ", dispatch.stalls),
    ]
    if not (any(count for _label, count in facts) or dispatch.relaunches
            or dispatch.host_failures or dispatch.poisoned
            or stats.degraded):
        return ""
    relaunches = dispatch.relaunches
    lines: List[str] = [
        f"  supervision: {dispatch.hosts} worker(s), {relaunches} "
        f"relaunch{'' if relaunches == 1 else 'es'}"
    ]
    lines += [f"    {label}: {count}" for label, count in facts if count]
    if dispatch.host_failures:
        detail = ", ".join(
            f"{host} x{count}"
            for host, count in sorted(dispatch.host_failures.items())
        )
        lines.append(f"    worker failures          : {detail}")
    if dispatch.blacklisted:
        lines.append(
            f"    blacklisted              : "
            f"{', '.join(dispatch.blacklisted)}"
        )
    if dispatch.poisoned:
        indices = ", ".join(map(str, dispatch.poisoned))
        lines.append(
            f"    poison faults isolated   : "
            f"{len(dispatch.poisoned)} (index {indices})"
        )
    if stats.quarantined:
        indices = ", ".join(map(str, stats.quarantined))
        lines.append(
            f"    suspects quarantined     : "
            f"{len(stats.quarantined)} (index {indices})"
        )
    if stats.degraded:
        lines.append(
            "    degraded to a serial run after every worker was lost"
        )
    return "\n".join(lines) + "\n"


def campaign_csv(campaign: Campaign, circuit: Circuit) -> str:
    """Per-fault verdicts as CSV (fault, status, how, counters, detail).

    ``detail`` carries the budget limit or the first line of the
    quarantined traceback for ``aborted`` / ``errored`` rows (flattened
    to one line so the CSV stays one row per fault).  ``expanded_from``
    names the equivalence-class representative a row inherited its
    verdict from (empty for simulated faults).
    """
    table = Table(
        ["fault", "status", "how", "n_det", "n_conf", "n_extra",
         "sequences", "expansions", "expanded_from", "detail"]
    )
    for verdict in campaign.verdicts:
        detail = verdict.detail.strip().splitlines()
        table.add_row(
            {
                "fault": verdict.fault.describe(circuit),
                "status": verdict.status,
                "how": verdict.how,
                "n_det": verdict.counters.n_det,
                "n_conf": verdict.counters.n_conf,
                "n_extra": verdict.counters.n_extra,
                "sequences": verdict.num_sequences,
                "expansions": verdict.num_expansions,
                "expanded_from": verdict.expanded_from,
                "detail": detail[-1] if detail else "",
            }
        )
    return table.render_csv()
