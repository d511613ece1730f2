#!/usr/bin/env python3
"""Structural checks on the bench binaries' JSON output.

usage: check_bench_json.py tables|c10k|appmix [DIR]
       check_bench_json.py golden|c10k-virtual|c10k-repin COMMITTED [DIR]

Reads the BENCH_*.json files a bench run left in DIR (default: the current
directory) and exits non-zero with a message naming the first violated
check; on success it prints one summary line per file and "<kind>: OK".

  tables  the demux and ablations benches: both files exist and have the
          shared schema (bench, schema 1, profile, summary, non-empty
          results). The paper-table benches' full-size output gets the same
          schema check from `golden`.
  c10k    BENCH_c10k.json: all five placements; at least 99% of the
          requested flows (clients x conns_per_client, read from the
          summary) completed; host-profile attribution >= 90%; poll edges
          where the push-edge path exists; the per-op RPC, metastate and
          migration sections, with every requested library migration
          performed and completed without loss.
  appmix  BENCH_appmix.json: exactly one row per placement x mix, each with
          virtual time, frames and events; RPC calls on the RPC-carrying
          mixes; messages and bytes on every mix but dns.
  golden  the file named like COMMITTED (a committed full-size table run):
          the same bench, and `summary` and `results` equal to COMMITTED's
          value for value; a failure lists the cells that moved.
  c10k-virtual
          BENCH_c10k.json's virtual columns (every summary and row field but
          the wall-clock ones and host_profile: accepts, flows, frames,
          events, virtual time, connect latency, RPC and trap counts,
          metastate, migrations) equal COMMITTED's value for value; a
          failure lists the cells that moved.
  c10k-repin
          writes those virtual columns to COMMITTED (repin_goldens).
"""
import glob
import json
import os
import sys

PLACEMENTS = {'In-Kernel', 'Server', 'Library-IPC', 'Library-SHM', 'Library-SHM-IPF'}


def load(path, bench=None):
    with open(path) as f:
        doc = json.load(f)
    for key in ('bench', 'schema', 'profile', 'summary', 'results'):
        assert key in doc, f'{path}: missing {key}'
    assert doc['schema'] == 1, f'{path}: schema {doc["schema"]}'
    assert isinstance(doc['results'], list) and doc['results'], f'{path}: empty results'
    if bench is not None:
        assert doc['bench'] == bench, f'{path}: bench {doc["bench"]!r}, want {bench!r}'
    return doc


def check_tables(d='.'):
    files = {os.path.basename(p) for p in glob.glob(os.path.join(d, 'BENCH_*.json'))}
    expected = {'BENCH_ablations.json', 'BENCH_demux.json'}
    assert files >= expected, f'missing bench output: {sorted(expected - files)}'
    for name in sorted(files):
        doc = load(os.path.join(d, name))
        print(f'{name}: {len(doc["results"])} rows')


def check_c10k(d='.'):
    doc = load(os.path.join(d, 'BENCH_c10k.json'), 'c10k')
    summary = doc['summary']
    requested = summary['migrate']
    flow_floor = 0.99 * summary['conns_per_client'] * summary['clients']
    rows = {r['placement']: r for r in doc['results']}
    assert set(rows) == PLACEMENTS, f'placements: {sorted(rows)}'
    assert len(rows) == len(doc['results']), 'duplicate placement rows'
    for name, r in rows.items():
        assert r['accepts'] > 0, f'{name}: no connections accepted'
        assert r['flows_completed'] >= flow_floor, (
            f'{name}: storm incomplete: {r["flows_completed"]} < {flow_floor}')
        assert r['connect_p99_ms'] > 0 and r['wall_ns_per_pkt'] > 0, name
        # Host wall-clock attribution rides along on every placement row.
        hp = r.get('host_profile')
        assert hp is not None and hp['domains'], f'{name}: no host_profile'
        assert hp['attributed_pct'] >= 90, f"{name}: {hp['attributed_pct']}% attributed"
        # The epoll-style push-edge path materializes in the kernel and
        # UX-server placements; library placements bridge through the
        # cooperative select instead.
        if name in ('In-Kernel', 'Server'):
            assert r['poll_edges'] > 0 and r['poll_wakeups'] > 0, f'{name}: no poll edges'
        for section in ('rpc_ops', 'metastate', 'migrations'):
            assert section in r, f'{name}: missing {section} section'
        meta = r['metastate']
        assert meta['totals'].get('port-acquire', 0) > 0, f'{name}: no port activity'
        assert meta['timeseries_samples'] > 0, f'{name}: sampler took nothing'
        mig = r['migrations']
        if name == 'In-Kernel':
            # No server: zero RPCs, the trap counter is the baseline cost.
            assert r['rpc_total'] == 0 and not r['rpc_ops'], f'{name}: phantom RPCs'
            assert r['server_traps'] > 0, f'{name}: no traps counted'
        else:
            assert r['rpc_total'] > 0 and r['rpc_per_connection'] > 0, name
            ops = {op: s for op, s in r['rpc_ops'].items() if s['count'] > 0}
            assert ops, f'{name}: rpc_ops table is empty'
            assert meta['rates_per_sec']['rpc'] > 0, f'{name}: zero RPC rate'
            want = 'accept' if name == 'Server' else 'listen'
            assert want in ops, f'{name}: expected op {want} in {sorted(ops)}'
            for op, s in ops.items():
                assert s['service_p99_us'] >= s['service_p50_us'] >= 0, f'{name}/{op}'
        if name.startswith('Library'):
            # Live migration under churn: all requested sessions moved,
            # every migrated connection completed its flow.
            assert mig['requested'] == requested, f'{name}: {mig}'
            assert mig['performed'] == requested, f'{name}: {mig}'
            assert mig['completed'] == mig['performed'], f'{name}: {mig}'
            assert mig['loss'] == 0, f'{name}: migrated-connection loss: {mig}'
            assert mig['total_p99_ms'] > 0, f'{name}: {mig}'
            phases = {p for p, s in mig['phases'].items() if s['count'] > 0}
            for phase in ('freeze', 'encode', 'transfer', 'install', 'resume'):
                assert phase in phases, f'{name}: phase {phase} never recorded'
        else:
            assert mig['performed'] == 0, f'{name}: unexpected migrations'
        print(f"{name}: {r['accepts']} accepts, {r['rpc_total']} rpcs "
              f"({r['rpc_per_connection']}/conn), {mig['performed']} migrations, "
              f"p99 connect {r['connect_p99_ms']} ms")


def check_appmix(d='.'):
    doc = load(os.path.join(d, 'BENCH_appmix.json'), 'appmix')
    mixes = {'rpc', 'lines', 'dns', 'switchy', 'mixed'}
    grid = {(r['config'], r['mix']) for r in doc['results']}
    want = {(p, m) for p in PLACEMENTS for m in mixes}
    assert grid == want, f'row grid mismatch: missing {want - grid}, extra {grid - want}'
    assert len(doc['results']) == len(want), 'duplicate rows'
    for r in doc['results']:
        assert r['virtual_ms'] > 0 and r['frames'] > 0 and r['events'] > 0, r
        assert r['wall_ns'] > 0, r
        if r['mix'] in ('rpc', 'switchy', 'mixed'):
            assert r['rpc_calls'] > 0, f"{r['config']}/{r['mix']}: no RPC calls"
        if r['mix'] != 'dns':
            assert r['msgs'] > 0 and r['bytes'] > 0, r
    print(f'{len(doc["results"])} placement x mix rows')


def check_golden(committed, d='.'):
    want = load(committed)
    got = load(os.path.join(d, os.path.basename(committed)), want['bench'])
    moved = [f'summary.{k}: {want["summary"].get(k)} -> {got["summary"].get(k)}'
             for k in sorted(set(want['summary']) | set(got['summary']))
             if want['summary'].get(k) != got['summary'].get(k)]
    if len(want['results']) != len(got['results']):
        moved.append(f'{len(want["results"])} -> {len(got["results"])} result rows')
    for i, (w, g) in enumerate(zip(want['results'], got['results'])):
        moved += [f'results[{i}] ({w.get("section")}, {w.get("config")}).{k}: '
                  f'{w.get(k)} -> {g.get(k)}'
                  for k in sorted(set(w) | set(g)) if w.get(k) != g.get(k)]
    assert not moved, f'{len(moved)} cells moved from {committed}:\n  ' + '\n  '.join(moved)
    print(f'{os.path.basename(committed)}: {len(got["results"])} rows match')


def c10k_virtual(d='.'):
    """BENCH_c10k.json without its host side: wall-clock fields and host_profile."""
    doc = load(os.path.join(d, 'BENCH_c10k.json'), 'c10k')
    skip = ('placement', 'wall_ns', 'wall_ns_per_pkt', 'host_profile')
    return {
        'summary': {k: v for k, v in doc['summary'].items() if not k.endswith('_wall_ns_per_pkt')},
        'results': {r['placement']: {k: v for k, v in r.items() if k not in skip}
                    for r in doc['results']},
    }


def cells(value, path=''):
    """Flattens nested dicts and lists into {path: leaf}."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    out = {}
    for k, v in items:
        out.update(cells(v, f'{path}.{k}' if path else str(k)))
    return out


def check_c10k_virtual(committed, d='.'):
    with open(committed) as f:
        want = cells(json.load(f))
    got = cells(c10k_virtual(d))
    moved = [f'{k}: {want.get(k)} -> {got.get(k)}'
             for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    assert not moved, f'{len(moved)} cells moved from {committed}:\n  ' + '\n  '.join(moved)
    print(f'{os.path.basename(committed)}: {len(got)} virtual cells match')


def repin_c10k_virtual(committed, d='.'):
    with open(committed, 'w') as f:
        json.dump(c10k_virtual(d), f, indent=1, sort_keys=True)
        f.write('\n')
    print(f'wrote {committed}')


CHECKS = {'tables': check_tables, 'c10k': check_c10k, 'appmix': check_appmix,
          'golden': check_golden, 'c10k-virtual': check_c10k_virtual,
          'c10k-repin': repin_c10k_virtual}
TAKES_COMMITTED = ('golden', 'c10k-virtual', 'c10k-repin')


def main(argv):
    kind = argv[1] if len(argv) > 1 else None
    args = argv[2:]
    if kind not in CHECKS or len(args) not in ((1, 2) if kind in TAKES_COMMITTED else (0, 1)):
        sys.exit(__doc__.split('\n\n')[1])
    try:
        CHECKS[kind](*args)
    except (AssertionError, KeyError, OSError, ValueError) as e:
        sys.exit(f'{kind}: FAILED: {type(e).__name__}: {e}')
    print(f'{kind}: OK')


if __name__ == '__main__':
    main(sys.argv)
