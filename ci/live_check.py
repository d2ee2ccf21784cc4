#!/usr/bin/env python3
"""CI consistency gate: live telemetry plane vs offline analyzer.

Usage: live_check.py <aio-live.jsonl> <aio-report.json>

The live plane (src/obs/live.cpp) and the analyzer (src/obs/analysis.cpp)
ingest the identical journal record stream, so the final live row's
cumulative attribution must agree with the report's summary.attribution to
floating-point noise.  This script fails (exit 1) on any component drifting
past 1e-6 relative — the tolerance a window-accounting bug (a slot double
count, a missed roll-over, a dropped writer) cannot hide under.

Every row's straggler ranking is checked too: at most TOP_K entries with
distinct `ost` ids, ordered by score descending, then `ost` ascending (the
plane's bounded top-k selection must keep the total order a full sort of
the fleet would give).
"""
import json
import sys

TOL = 1e-6
KEYS = ("total_wait_s", "internal_s", "external_s", "mds_s", "network_s")
TOP_K = 8  # LivePlane::view()'s default, used for every snapshot row


def straggler_error(row):
    """Why `row`'s straggler list breaks the ranking contract, or None."""
    top = row.get("stragglers")
    if not isinstance(top, list):
        return "no stragglers list"
    if len(top) > TOP_K:
        return f"{len(top)} stragglers, want at most {TOP_K}"
    ids = [o["ost"] for o in top]
    if len(set(ids)) != len(ids):
        return f"duplicate ost ids {ids}"
    for a, b in zip(top, top[1:]):
        if (-a["score"], a["ost"]) >= (-b["score"], b["ost"]):
            return (f"ost {a['ost']} (score {a['score']!r}) ranked before "
                    f"ost {b['ost']} (score {b['score']!r})")
    return None


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    live_path, report_path = sys.argv[1], sys.argv[2]

    rows = [json.loads(line) for line in open(live_path) if line.strip()]
    if not rows:
        print(f"live_check: {live_path} has no rows", file=sys.stderr)
        return 1
    finals = [r for r in rows if r.get("final")]
    if len(finals) != 1:
        print(f"live_check: expected exactly one final row, got {len(finals)}",
              file=sys.stderr)
        return 1
    final = finals[0]
    if final.get("schema") != "aio-live-v1":
        print(f"live_check: bad schema {final.get('schema')!r}", file=sys.stderr)
        return 1
    live = final["attribution"]

    for i, row in enumerate(rows):
        err = straggler_error(row)
        if err:
            print(f"live_check: row {i} (t={row.get('t')}): {err}", file=sys.stderr)
            return 1

    report = json.load(open(report_path))
    offline = report["summary"]["attribution"]

    failures = []
    for key in KEYS:
        a, b = live[key], offline[key]
        if abs(a - b) > TOL * max(1.0, abs(b)):
            failures.append(f"  {key}: live={a!r} offline={b!r} "
                            f"(|diff|={abs(a - b):.3e})")
    live_writers = final["cumulative"]["writers"]
    offline_writers = report["summary"]["writers"]
    if live_writers != offline_writers:
        failures.append(f"  writers: live={live_writers} offline={offline_writers}")

    if failures:
        print("live_check: live plane disagrees with offline analyzer:",
              file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1

    share = {k: live[k] / live["total_wait_s"] if live["total_wait_s"] > 0 else 0.0
             for k in KEYS[1:]}
    print(f"live_check ok: {len(rows)} rows ranked, {int(live_writers)} writers, "
          f"total_wait={live['total_wait_s']:.3f}s "
          f"(int {share['internal_s']:.2f} / ext {share['external_s']:.2f} / "
          f"mds {share['mds_s']:.2f} / net {share['network_s']:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
