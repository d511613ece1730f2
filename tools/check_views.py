#!/usr/bin/env python3
"""Structural checks on psdobs views, run by ctest.

    check_views.py PSDOBS VIEW      VIEW in stat|walk|trace|top|prof|flags

Each VIEW runs psdobs the way a user would, in a fresh temporary directory,
and asserts what scripts and humans rely on: journey conservation, pcap
structure, JSON schemas, the top table grammar, flame-line format and
host-time attribution. `flags` checks that the one parser rejects bad
input with the usage text and exit status 2. Prints "<VIEW> view: OK" on
success; any failed assertion exits nonzero.
"""
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

PSDOBS = None


def run(*args, expect=0):
    """Runs psdobs with `args`; returns stdout, asserting the exit status."""
    p = subprocess.run([PSDOBS, *args], capture_output=True, text=True)
    assert p.returncode == expect, \
        f'psdobs {" ".join(args)}: exit {p.returncode}, want {expect}\n{p.stderr}'
    return p.stdout


def check_journey(j):
    assert j['minted'] == j['delivered'] + j['consumed'] + j['dropped'] + j['in_flight'], \
        f'journey conservation violated: {j}'
    assert j['conflicts'] == 0, f'conflicting packet terminals: {j}'


def check_pcap(path):
    with open(path, 'rb') as f:
        data = f.read()
    magic, vmaj, vmin, _zone, _sigfigs, _snaplen, linktype = struct.unpack('<IHHiIII', data[:24])
    assert magic == 0xa1b2c3d4, f'{path}: bad magic {magic:#x}'
    assert (vmaj, vmin) == (2, 4), f'{path}: bad version'
    assert linktype == 1, f'{path}: not LINKTYPE_ETHERNET'
    off, count, prev_ts = 24, 0, -1
    while off < len(data):
        assert off + 16 <= len(data), f'{path}: truncated record header at {off}'
        sec, usec, incl, orig = struct.unpack('<IIII', data[off:off + 16])
        assert incl == orig and incl >= 14, f'{path}: bad record at {off}'
        assert usec < 1_000_000, f'{path}: usec out of range at {off}'
        ts = sec * 1_000_000 + usec
        assert ts >= prev_ts, f'{path}: timestamps went backwards at {off}'
        prev_ts = ts
        off += 16 + incl
        count += 1
    assert off == len(data), f'{path}: trailing bytes'
    assert count > 0, f'{path}: empty capture'


def find_blocks(d, key, out):
    for k, v in d.items():
        if k == key and isinstance(v, dict):
            out.append(v)
        elif isinstance(v, dict):
            find_blocks(v, key, out)


def view_stat():
    doc = json.loads(run('stat', '--trials', '20', '--json', '--pcap', 'wire.pcap',
                         '--kern-pcap', 'deliv.pcap'))
    for key in ('psdstat', 'config', 'msg_size', 'trials', 'loss_rate', 'runs', 'counters',
                'histograms', 'instants', 'drop_reasons', 'journey'):
        assert key in doc, f'stat json: missing {key}'
    assert [r['proto'] for r in doc['runs']] == ['tcp', 'udp'], doc['runs']
    assert all(r['rtt_ms'] > 0 for r in doc['runs']), doc['runs']
    for host in ('h0', 'h1'):
        # Walk to the stack blocks regardless of placement prefix
        # (stack / ux.stack / ns.stack / lib.stack).
        for proto in ('tcp', 'udp', 'ip', 'ether'):
            blocks = []
            find_blocks(doc['counters'][host], proto, blocks)
            assert blocks, f'{host}: no {proto} counter block'
            total = sum(v for b in blocks for v in b.values() if isinstance(v, int))
            assert total > 0, f'{host}: all-{proto} counters are zero'
    hist = doc['histograms']['protolat/rtt']
    assert hist['count'] > 0 and 0 < hist['p50_us'] <= hist['p99_us'], hist
    check_journey(doc['journey'])
    for path in ('wire.pcap', 'deliv.pcap'):
        check_pcap(path)

    terse = run('stat', '--trials', '5', '--terse')
    assert 'drop reasons:' in terse and 'tcp.session.' not in terse, 'bad --terse output'

    # Loss run: UDP protolat has no retry, so a lost datagram stalls it;
    # TCP recovers and the ledger must name the wire faults.
    loss = json.loads(run('stat', '--proto', 'tcp', '--trials', '5', '--loss', '0.05', '--json'))
    assert loss['drop_reasons'].get('wire-fault', 0) > 0, \
        f'no wire-fault drops ledgered: {loss["drop_reasons"]}'
    # Each component exports its drops as reads of the ledger at its own
    # node ("h0.kern.nic.drops.nic-ring-overflow", "wire.drops.wire-fault"):
    # summed over both hosts and the wire they equal the run's totals.
    blocks = []
    for part in ('h0', 'h1', 'wire'):
        find_blocks(loss['counters'][part], 'drops', blocks)
    sums = {}
    for b in blocks:
        for reason, v in b.items():
            sums[reason] = sums.get(reason, 0) + v
    assert sums.get('wire-fault', 0) > 0, f'no wire-fault drop gauge: {sums}'
    for reason, v in sums.items():
        assert v == loss['drop_reasons'].get(reason, 0), \
            f'{reason}: drop gauges sum to {v}, ledger says {loss["drop_reasons"]}'
    # Protocol events are read at the same instant as the ledger: every
    # wire fault is one "wire/drop" instant.
    assert loss['instants'].get('wire/drop', 0) == loss['drop_reasons']['wire-fault'], \
        f'wire/drop {loss["instants"].get("wire/drop", 0)} != ' \
        f'wire-fault {loss["drop_reasons"]["wire-fault"]}'
    check_journey(loss['journey'])
    text = run('stat', '--proto', 'tcp', '--trials', '5', '--loss', '0.05')
    m = re.search(r'^drop reasons:\n((?:  \S+ +\d+.*\n)+)', text, re.M)
    assert m and 'wire-fault' in m.group(1), 'no wire-fault row under "drop reasons:"'
    m = re.search(r'^packet journeys: (\d+) minted, (\d+) delivered, (\d+) consumed, '
                  r'(\d+) dropped, (\d+) in flight$', text, re.M)
    assert m, 'no packet journeys line'
    minted, delivered, consumed, dropped, in_flight = map(int, m.groups())
    assert minted == delivered + consumed + dropped + in_flight, m.group(0)


def view_walk():
    args = ('walk', '--trials', '20', '--loss', '0.05', '--seed', '3')
    text = run(*args)
    m = re.search(r'packets: (\d+) minted, (\d+) delivered, (\d+) consumed, '
                  r'(\d+) dropped, (\d+) in flight', text)
    assert m, 'no summary line'
    minted, delivered, consumed, dropped, in_flight = map(int, m.groups())
    assert minted == delivered + consumed + dropped + in_flight, m.group(0)
    assert dropped > 0, '5% loss run ledgered no drops'
    terminals = re.findall(r'^pkt \d+: (\S+)$', text, re.M)
    assert len(terminals) == minted, f'{len(terminals)} journeys for {minted} packets'
    ok = re.compile(r'delivered|consumed|dropped\([a-z0-9-]+\)|in-flight-at-exit')
    for t in terminals:
        assert ok.fullmatch(t), f'bad terminal {t!r}'
    assert 'dropped(wire-fault)' in text

    lost = re.findall(r'^pkt \d+: (\S+)$', run(*args, '--lost-only'), re.M)
    assert lost and len(lost) == dropped + in_flight, f'{len(lost)} lost-only journeys'
    assert all(t.startswith('dropped(') or t == 'in-flight-at-exit' for t in lost), lost

    doc = json.loads(run(*args, '--json'))
    s = doc['summary']
    assert s['minted'] == minted and s['dropped'] == dropped, 'text/json disagree'
    assert s['conflicts'] == 0, 'conflicting packet terminals'
    assert doc['drop_reasons'].get('wire-fault', 0) > 0, doc['drop_reasons']
    assert len(doc['packets']) == minted
    for p in doc['packets']:
        assert p['hops'], f"pkt {p['pkt']} has no hops"


def view_trace():
    out = run('trace', '--config', 'library-shm-ipf', '--proto', 'udp', '--trials', '10',
              '--out', 'trace.json', '--stats')
    first, *stats = out.splitlines()
    assert re.fullmatch(r'Library-SHM-IPF udp 1B x10: rtt [\d.]+ ms, \d+ events -> trace\.json',
                        first), f'bad summary line {first!r}'
    assert stats, 'no --stats registry dump'
    for line in stats:
        assert re.fullmatch(r'\S+ \d+', line), f'bad stats line {line!r}'
    with open('trace.json') as f:
        events = json.load(f)['traceEvents']
    assert events, 'empty trace'
    cats = {e['cat'] for e in events if 'cat' in e}
    for layer in ('kern', 'ipc', 'filter', 'inet', 'core'):
        assert layer in cats, f'no spans from layer {layer}: {sorted(cats)}'


def view_top():
    text = run('top', '--config', 'library-shm', '--clients', '8', '--conns', '2',
               '--migrate', '2')
    assert re.search(r'^psdtop: Library-SHM, 8 clients x 2 conns, \d+ accepts, \d+ flows$',
                     text, re.M), 'bad header line'
    assert re.search(r'^rpc: \d+ calls, \d+\.\d+ per connection \(traps \d+\), '
                     r'\d+/s; \d+ samples @ 100 ms$', text, re.M), 'bad rpc summary line'
    # OP table: header then >= 1 data row of 1 name + 3 ints + 4 floats.
    assert re.search(r'^OP\s+COUNT\s+B/IN\s+B/OUT\s+Q-P50us\s+Q-P99us\s+S-P50us\s+S-P99us$',
                     text, re.M), 'no OP header'
    op_rows = re.findall(r'^(\S+)\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+\.\d)\s+(\d+\.\d)'
                         r'\s+(\d+\.\d)\s+(\d+\.\d)\s*$', text, re.M)
    assert op_rows, 'no per-op rows matched the table grammar'
    assert any(r[0] == 'accept' for r in op_rows), f'no accept row: {[r[0] for r in op_rows]}'
    counts = [int(r[1]) for r in op_rows]
    assert counts == sorted(counts, reverse=True), 'op rows not sorted by count desc'
    assert re.search(r'^RESOURCE\s+TOTAL\s+/SEC$', text, re.M)
    assert re.search(r'^route-lookup\s+\d+\s+\d+\.\d$', text, re.M), 'no route-lookup rate row'
    assert re.search(r'^PHASE\s+COUNT\s+P50us\s+P99us$', text, re.M)
    for phase in ('freeze', 'encode', 'transfer', 'install', 'resume'):
        assert re.search(rf'^{phase}\s+\d+\s+\d+\.\d\s+\d+\.\d$', text, re.M), \
            f'no {phase} phase row'
    assert re.search(r'^migrations performed: 2$', text, re.M)
    assert re.search(r'^host: [\d.]+ ms wall, [\d.]+% attributed; top:( \S+ [\d.]+%)+$',
                     text, re.M), 'bad host line'
    ktext = run('top', '--config', 'in-kernel', '--clients', '4', '--conns', '1', '--migrate', '0')
    assert 'no RPC ops' in ktext, 'in-kernel run should show the empty-table notice'

    for args in (('--config', 'library-shm', '--clients', '8', '--conns', '2', '--migrate', '2'),
                 ('--config', 'server', '--clients', '6', '--conns', '1')):
        doc = json.loads(run('top', *args, '--json'))
        for key in ('psdtop', 'config', 'accepts', 'flows_completed', 'rpc_total',
                    'rpc_per_connection', 'server_traps', 'rpc_ops', 'metastate',
                    'migrations', 'timeseries', 'host_profile', 'host_timeseries'):
            assert key in doc, f'{args}: missing {key}'
        # Host wall-clock data sits only in host_profile and host_timeseries:
        # the rest of a second run of the same binary is identical.
        again = json.loads(run('top', *args, '--json'))
        host_keys = ('host_profile', 'host_timeseries')
        assert ({k: v for k, v in again.items() if k not in host_keys} ==
                {k: v for k, v in doc.items() if k not in host_keys}), \
            f'{args}: the virtual part differs between two runs'
        assert doc['psdtop'] == 1 and doc['rpc_total'] >= 1, args
        for op, s in doc['rpc_ops'].items():
            for k in ('count', 'bytes_in', 'bytes_out', 'queue_p50_us', 'queue_p99_us',
                      'service_p50_us', 'service_p99_us'):
                assert k in s, f'{args}: {op} missing {k}'
        assert all(isinstance(v, int) for v in doc['metastate'].values()), args
        assert 'performed' in doc['migrations'] and 'phases' in doc['migrations'], args
        ts = doc['timeseries']
        assert ts['timeseries'] == 1 and ts['interval_ns'] > 0, args
        assert ts['taken'] >= len(ts['samples']) > 0, f'{args}: no samples'
        assert ts['dropped'] == ts['taken'] - len(ts['samples']), args
        prev = -1
        for s in ts['samples']:
            assert s['t_ns'] > prev, f'{args}: non-monotone sample times'
            prev = s['t_ns']
            assert isinstance(s['gauges'], dict) and s['gauges'], f'{args}: empty gauges'
            assert all(isinstance(v, int) for v in s['gauges'].values()), args
        names = set(ts['samples'][0]['gauges'])
        assert any(n.startswith('meta.') for n in names), f'{args}: no meta. gauges'
        assert 'rpc.total' in names, f'{args}: gauges {names}'
        assert not any(n.startswith('prof.') for n in names), f'{args}: host gauges in timeseries'
        host_ts = doc['host_timeseries']
        host = set(host_ts['samples'][0]['gauges'])
        assert host and all(n.startswith('prof.') for n in host), f'{args}: host gauges {host}'
        assert len(host_ts['samples']) == len(ts['samples']), args


def view_prof():
    text = run('prof', '--workload=udp_blast', '--scale=0.1', '--min-attributed=90')
    assert re.search(r'^-- psdprof: udp_blast \(scale 0\.1\) --$', text, re.M)
    m = re.search(r'^\d+ frames, (\d+) events, (\d+) elided wakeups, \d+ switches, '
                  r'virtual end [\d.]+ s$', text, re.M)
    assert m, 'bad virtual-quantities line'
    assert 0 < int(m.group(2)) <= int(m.group(1)), \
        f'elided wakeups {m.group(2)} not in (0, events {m.group(1)}]'
    m = re.search(r'^-- host profile: [\d.]+ ms wall, ([\d.]+)% attributed', text, re.M)
    assert m, 'no host profile header'
    assert float(m.group(1)) >= 90, f'only {m.group(1)}% attributed'
    rows = re.findall(r'^([a-z][a-z0-9_.]+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s*$',
                      text, re.M)
    assert rows, 'no domain rows matched the table grammar'
    names = [r[0] for r in rows]
    for dom in ('fiber.swap', 'sim.sched', 'inet.proto_in'):
        assert dom in names, f'no {dom} row: {names}'
    totals = [int(r[2]) for r in rows]
    assert totals == sorted(totals, reverse=True), 'rows not sorted by total_ns desc'
    assert re.search(r'^-- fibers \(exclusive host ns\) --$', text, re.M)

    # Flame lines: "root;child;...;leaf <integer>", flamegraph.pl-ready.
    flame = run('prof', '--workload', 'churn_256', '--scale', '0.1', '--flame').splitlines()
    assert flame, 'empty flame output'
    line_re = re.compile(r'^[a-z][a-z0-9_.]*(;[a-z][a-z0-9_.]*)* \d+$')
    for line in flame:
        assert line_re.fullmatch(line), f'bad flame line: {line!r}'
    assert any(';' in line.split(' ')[0] for line in flame), 'no nested stacks'
    assert any(line.startswith('fiber.run;') for line in flame), 'no fiber-rooted stacks'

    doc = json.loads(run('prof', '--workload=udp_blast', '--scale=0.1', '--json'))
    for key in ('psdprof', 'enabled', 'wall_ns', 'attributed_pct', 'domains',
                'fibers', 'stacks', 'cpu_model'):
        assert key in doc, f'missing {key}'
    assert doc['enabled'] and doc['attributed_pct'] >= 90 and doc['domains'], \
        'weak JSON attribution'


def view_flags():
    bad = [
        (), ('nope',), ('stat', 'extra'), ('stat', '--nope'),
        ('stat', '--trials', '0'), ('stat', '--trials', 'x'), ('stat', '--trials', '3x'),
        ('stat', '--trials'), ('stat', '--size', '0'), ('stat', '--size=-5'),
        ('stat', '--loss', '1.5'), ('stat', '--loss=-0.1'), ('stat', '--loss', 'nan'),
        ('stat', '--seed', 'abc'), ('stat', '--config', 'nope'), ('stat', '--proto', 'icmp'),
        ('stat', '--json=1'), ('walk', '--proto', 'both'), ('trace', '--proto=both'),
        ('walk', '--pkt', 'x'), ('walk', '--terse'), ('trace', '--pcap', 'x.pcap'),
        ('top', '--clients', '0'), ('top', '--conns', '0'), ('top', '--interval', '0'),
        ('top', '--migrate', '-1'), ('top', '--proto', 'tcp'), ('top', '--seed', '1'),
        ('prof', '--scale', '0'), ('prof', '--scale=1.5'), ('prof', '--scale=nan'),
        ('prof', '--scale=-nan'), ('prof', '--workload', 'nope'), ('prof', '--config', 'server'),
        ('prof', '--min-attributed', 'x'),
    ]
    for args in bad:
        p = subprocess.run([PSDOBS, *args], capture_output=True, text=True)
        assert p.returncode == 2, f'psdobs {" ".join(args)}: exit {p.returncode}, want 2'
        assert p.stderr.count('usage: psdobs') == 1 and not p.stdout, \
            f'psdobs {" ".join(args)}: no usage text, or output on stdout'
    # Both flag spellings select the same run.
    a = run('walk', '--trials', '3', '--size', '8', '--proto', 'udp')
    b = run('walk', '--trials=3', '--size=8', '--proto=udp')
    assert a == b and a, '--flag value and --flag=value disagree'


def main():
    global PSDOBS
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    PSDOBS = os.path.abspath(sys.argv[1])
    view = globals().get('view_' + sys.argv[2])
    if view is None:
        sys.exit(f'unknown view {sys.argv[2]!r}')
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        view()
    print(f'{sys.argv[2]} view: OK')


if __name__ == '__main__':
    main()
