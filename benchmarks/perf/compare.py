"""Compare two ``repro.bench/2`` result files, metric by metric.

For every workload and end-to-end metric both sets' medians, quartiles
and n are shown with a verdict, using the bound ``BENCHMARK.json``
fixes for that metric:

* ``unresolved`` — either set's run-to-run spread (quartile distance
  over median) exceeds the bound, so a change of that size cannot be
  told from noise; it becomes ``better``/``worse`` only when every run
  of B reads better/worse than every run of A;
* ``worse`` / ``better`` — B's median moved past the bound;
* ``unchanged`` — otherwise.

``failed_frac`` has bound 0: any rise is ``worse``.  Per-layer metrics
(when both sets were traced) are listed with their relative change and
no verdict.  Output- and corpus-digest differences between the sets
are flagged.  The exit status is 1 on any ``worse``.
"""

from __future__ import annotations

from . import spec


def _spread(stats: dict) -> float:
    median = stats["median"]
    if not median:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(median)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The verdict for one metric summarized in both sets."""
    if a["median"] is None or b["median"] is None:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    if a["median"]:
        worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    else:
        worse_by = sign * b["median"]
    if max(_spread(a), _spread(b)) > bound:
        a_values = [sign * v for v in a["values"]]
        b_values = [sign * v for v in b["values"]]
        if b_values and a_values and max(b_values) < min(a_values):
            return "better"
        if b_values and a_values and min(b_values) > max(a_values):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def _fmt_stats(stats: dict) -> str:
    if stats["median"] is None:
        return "-"
    return (f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"
            f" n={stats['n']}")


def _host_line(label: str, document: dict) -> str:
    host = document["host"]
    git = host.get("git") or {}
    sha = git.get("sha", "no git")[:12] + ("+dirty" if git.get("dirty")
                                            else "")
    return (f"{label}: {document['profile']} profile, seed "
            f"{document['seed']}, {host['nproc']} x {host['cpu_model']}, "
            f"python {host['python']}, numpy {host['numpy']}, {sha}")


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B regressed against A."""
    benchmark = spec.load_benchmark()
    metrics = benchmark["end_to_end"] + [spec.FAILED_FRAC]
    lines = [_host_line("A", a), _host_line("B", b)]
    regressed = False
    for name in [w for w in a["workloads"] if w in b["workloads"]]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        lines.append(f"== {name}")
        for metric in metrics:
            sa = wa["metrics"][metric["name"]]
            sb = wb["metrics"][metric["name"]]
            result = verdict(sa, sb, metric["better"], metric["bound"])
            regressed |= result == "worse"
            lines.append(
                f"  {metric['name']:<14} A {_fmt_stats(sa):<38} "
                f"B {_fmt_stats(sb):<38} {metric['unit']:<6} "
                f"bound {metric['bound']:.0%}  {result}"
            )
        if wa["digest"] != wb["digest"]:
            lines.append(f"  ! output digest differs: {wa['digest']} vs "
                         f"{wb['digest']}")
        corpus_a = (wa.get("corpus") or {}).get("digest")
        corpus_b = (wb.get("corpus") or {}).get("digest")
        if corpus_a != corpus_b:
            lines.append(f"  ! corpus digest differs: {corpus_a} vs "
                         f"{corpus_b}")
        if "layers" in wa and "layers" in wb:
            for metric, entry in wa["layers"].items():
                va = entry["value"]
                vb = wb["layers"].get(metric, {}).get("value")
                change = (f"{(vb - va) / abs(va):+.1%}"
                          if va and vb is not None else "-")
                lines.append(f"  layer {metric:<34} A {va:<12.4g} "
                             f"B {vb if vb is None else f'{vb:.4g}':<12} "
                             f"{change}")
    missing = sorted(set(a["workloads"]) ^ set(b["workloads"]))
    if missing:
        lines.append(f"! workloads in only one set: {', '.join(missing)}")
    return lines, regressed
