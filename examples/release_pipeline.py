#!/usr/bin/env python3
"""The release pipeline: simulate → anonymize → publish → audit → analyze.

Re-enacts the data's journey: the proxies log raw traffic, the release
suppresses client identities (zeroed everywhere, hashed for July
22-23), a privacy audit verifies nothing leaks, and the published
files still support the full analysis — the property that made the
paper possible.

Run:  python examples/release_pipeline.py [output_dir]

Without *output_dir* the release goes to a temporary directory that is
removed when the script finishes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.analysis.overview import top_domains, traffic_breakdown
from repro.datasets import build_scenario
from repro.frame import concat, frame_from_records
from repro.logmodel.audit import audit_release
from repro.logmodel.elff import ReadStats, read_log, write_log
from repro.logmodel.record import LogRecord
from repro.workload.config import small_config


def main() -> None:
    if len(sys.argv) > 1:
        release(Path(sys.argv[1]))
        print(f"\nRelease directory: {sys.argv[1]}")
        return
    with tempfile.TemporaryDirectory(prefix="syria-release-") as out:
        release(Path(out))


def release(out: Path) -> None:
    """Publish, audit and re-analyze a simulated release in *out*."""
    out.mkdir(parents=True, exist_ok=True)

    # 1. Simulate the deployment (anonymization happens at build time,
    #    exactly like the release).
    print("1. Simulating the deployment...")
    datasets = build_scenario(small_config(25_000, seed=14))
    frame = datasets.full

    # 2. Publish: one ELFF file per proxy, like the Telecomix release.
    print("2. Writing the release files...")
    by_proxy: dict[str, list[LogRecord]] = {}
    for i in range(len(frame)):
        row = frame.row(i)
        record = LogRecord(
            epoch=int(row["epoch"]),
            c_ip=str(row["c_ip"]),
            s_ip=str(row["s_ip"]),
            cs_host=str(row["cs_host"]),
            cs_uri_path=str(row["cs_uri_path"]),
            cs_uri_query=str(row["cs_uri_query"]),
            sc_filter_result=str(row["sc_filter_result"]),
            x_exception_id=str(row["x_exception_id"]),
            cs_user_agent=str(row["cs_user_agent"]),
            cs_categories=str(row["cs_categories"]),
        )
        by_proxy.setdefault(record.s_ip, []).append(record)
    paths = []
    for s_ip, records in sorted(by_proxy.items()):
        path = out / f"sg-{s_ip.rsplit('.', 1)[-1]}.log"
        write_log(records, path)
        paths.append(path)
        print(f"   {path.name}: {len(records):,} records")

    # 3. Privacy audit before anything leaves the machine.
    print("3. Auditing the release for client-address leaks...")
    findings = audit_release(*paths)
    print(f"   {findings.summary()}")
    if not findings.safe:
        raise SystemExit("release blocked: raw client addresses present")

    # 4. A downstream researcher loads the published files...
    print("4. Re-loading the published files (lenient parser)...")
    stats = ReadStats()
    frames = [
        frame_from_records(read_log(path, lenient=True, stats=stats))
        for path in paths
    ]
    published = concat(frames)
    print(f"   parsed {stats.records:,} records, skipped {stats.skipped}")

    # 5. ...and reproduces the analysis from the files alone.
    print("5. Analyzing the published logs...")
    breakdown = traffic_breakdown(published)
    print(f"   allowed {breakdown.allowed_pct:.2f}%, "
          f"censored {breakdown.censored_pct:.2f}%")
    censored = top_domains(published).censored[:5]
    print("   top censored:", ", ".join(r.domain for r in censored))


if __name__ == "__main__":
    main()
