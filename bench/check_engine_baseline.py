#!/usr/bin/env python3
"""Checks bench_engine's virtual quantities against the committed baseline.

usage: check_engine_baseline.py <engine_baseline.json> <BENCH_engine.json>

Packets, events, thread switches and virtual end time are deterministic, so
every result row must match the baseline's "virtual" block exactly, on any
machine. Wall time is not checked. Exits 1 and names each mismatch.
"""
import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        base = json.load(f)
    with open(sys.argv[2]) as f:
        got = json.load(f)
    rows = {}
    for r in got['results']:
        rows.setdefault(r['workload'], []).append(r)
    failures = []
    for wl, want in base['virtual'].items():
        if wl not in rows:
            failures.append(f'{wl}: no result rows')
        for r in rows.get(wl, []):
            for key, v in want.items():
                if r[key] != v:
                    failures.append(f'{wl} trial {r["trial"]}: {key}={r[key]}, baseline {v}')
        print(f'{wl}: {want}')
    if failures:
        sys.exit('\n'.join(['engine virtual baseline: MISMATCH'] + failures))
    print('engine virtual baseline: OK')


if __name__ == '__main__':
    main()
