#!/usr/bin/env python3
"""Checks a bench_engine run against the committed baseline.

usage: check_engine_baseline.py <engine_baseline.json> <BENCH_engine.json>

Packets, events, thread switches, elided wakeups (events that skipped the
event queue) and virtual end time are deterministic, so every result row
must match the baseline's "virtual" block exactly, on any machine. Every row must also carry a host_profile with a non-empty domain
table attributing at least 90% of its wall time, and the run's profile must
name the host (cpu_model, cpu_cores, governor). Wall time itself is not
checked. Exits 1 and names each failure.
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
                if r.get(key) != v:
                    failures.append(f'{wl} trial {r["trial"]}: {key}={r.get(key)}, '
                                    f'baseline {v}')
        print(f'{wl}: {want}')
    for key in ('cpu_model', 'cpu_cores', 'governor'):
        if key not in got['profile']:
            failures.append(f'profile missing host context key {key}')
    for r in got['results']:
        hp = r.get('host_profile')
        if hp is None:
            failures.append(f'{r["workload"]} trial {r["trial"]}: no host_profile')
        elif not hp.get('domains'):
            failures.append(f'{r["workload"]} trial {r["trial"]}: empty domain table')
        elif hp['attributed_pct'] < 90:
            failures.append(f'{r["workload"]} trial {r["trial"]}: only '
                            f'{hp["attributed_pct"]}% of wall attributed')
        else:
            top = max(hp['domains'].items(), key=lambda kv: kv[1]['ns'])
            print(f'{r["workload"]} trial {r["trial"]}: {hp["attributed_pct"]}% attributed, '
                  f'top domain {top[0]}')
    if failures:
        sys.exit('\n'.join(['engine baseline: MISMATCH'] + failures))
    print('engine baseline: OK')


if __name__ == '__main__':
    main()
