#!/usr/bin/env python3
"""Normalize a pvr-bench-v1 JSON document for determinism diffing.

The determinism gate runs the scale experiments (e14, and e15 when
selected) once per shard count and asserts the outputs are
byte-for-byte identical after stripping the fields that are *allowed*
to differ:

- wall-clock timings (machine noise) and the shard count itself (the
  run's parameter, not its result);
- everything derived from `verify_cache_hits` — the workspace-wide
  carve-out: verification caches are per shard, and a per-shard cache
  sees fewer hits than one shard's network-wide cache, by design;
- e18's checkpoint byte size — the checkpoint file's ENGINE section is
  shard-shaped (one sequence-tagged calendar per shard), so files
  written at different shard counts for the same logical instant
  legitimately differ in size.

Every other metric — e14's AS/edge/origin counts, event totals, peak
RIB size, bytes on the wire, O(1) short-circuits; e15's metrics series
and convergence-timeline windows; e16's settle-time percentiles,
withdraw fan-out, dampening suppressions, fault counts, and the
degradation/deployment tables (all sim-time derived, no timing fields
at all); e17's baseline/private event counts, sim-time convergence,
sim-time privacy-overhead multiplier, batch occupancy, and the full
SMC bill (requests, batches, rounds, bits broadcast, modeled latency,
verdict tally); e18's convergence events, snapshot/checkpoint counts,
replayed events, `recovered_identical` verdict, the converged RIB's
SHA-256 (both e14's per-cell `final_rib_sha256` and e18's), and the
hijack-bisect forensic row — must survive unchanged, or the engine's
output depends on its shard count.

Usage: normalize_e14.py BENCH.json > normalized.json
"""

import json
import sys


def is_hit_series(name):
    return "verify_cache_hit" in name


def normalize_e14(e14):
    cells = e14.get("metrics")
    assert cells, "e14 record carries no metrics array"
    out = []
    for cell in cells:
        kept = {
            k: v
            for k, v in sorted(cell.items())
            if k not in ("shards", "wall_secs", "events_per_sec")
        }
        out.append(kept)
    # Sort by (scale, mode) so cell emission order can never mask or
    # fake a divergence.
    out.sort(key=lambda c: (c["scale"], c["mode"]))
    return out


def normalize_e15(e15):
    series = e15.get("metrics")
    assert series, "e15 record carries no metrics array"
    windows = e15.get("timeline")
    assert windows is not None, "e15 record carries no timeline array"
    kept_series = [s for s in series if not is_hit_series(s["name"])]
    kept_windows = [
        {k: v for k, v in sorted(w.items()) if k != "verify_cache_hits"}
        for w in windows
    ]
    return {"metrics": kept_series, "timeline": kept_windows}


def normalize_e16(e16):
    metrics = e16.get("metrics")
    assert metrics, "e16 record carries no metrics object"
    # Every e16 field is sim-time derived: nothing to strip. Re-sorting
    # the keys is enough to make the diff format-stable.
    return {k: v for k, v in sorted(metrics.items())}


def normalize_e17(e17):
    rows = e17.get("metrics")
    assert rows, "e17 record carries no metrics array"
    out = []
    for row in rows:
        kept = {
            k: v
            for k, v in sorted(row.items())
            if k not in ("shards", "baseline_wall_secs", "private_wall_secs", "wall_overhead")
        }
        out.append(kept)
    out.sort(key=lambda r: r["scale"])
    return out


def normalize_e18(e18):
    m = e18.get("metrics")
    assert m, "e18 record carries no metrics object"
    timing = (
        "shards",
        "baseline_wall_secs",
        "checkpointed_wall_secs",
        "snapshot_overhead_pct",
        "checkpoint_write_secs",
        "write_mb_per_sec",
        "recovery_wall_secs",
        # Engine-local, not timing: the file's ENGINE section encodes
        # per-shard scheduler state, so its size differs by design.
        "last_checkpoint_bytes",
    )
    rows = [
        {k: v for k, v in sorted(r.items()) if k not in timing}
        for r in m["rows"]
    ]
    kept = {k: v for k, v in sorted(m.items()) if k != "rows"}
    kept["rows"] = rows
    return kept


def normalize(doc):
    assert doc.get("schema") == "pvr-bench-v1", f"unexpected schema {doc.get('schema')!r}"
    experiments = doc.get("experiments", [])
    e14 = next((e for e in experiments if e.get("id") == "e14"), None)
    assert e14 is not None, "no e14 record in document"
    out = {"e14": normalize_e14(e14)}
    e15 = next((e for e in experiments if e.get("id") == "e15"), None)
    if e15 is not None:
        out["e15"] = normalize_e15(e15)
    e16 = next((e for e in experiments if e.get("id") == "e16"), None)
    if e16 is not None:
        out["e16"] = normalize_e16(e16)
    e17 = next((e for e in experiments if e.get("id") == "e17"), None)
    if e17 is not None:
        out["e17"] = normalize_e17(e17)
    e18 = next((e for e in experiments if e.get("id") == "e18"), None)
    if e18 is not None:
        out["e18"] = normalize_e18(e18)
    return out


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as fh:
        doc = json.load(fh)
    json.dump(normalize(doc), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
