#!/usr/bin/env python3
"""Schema + regression-gate validation for the committed BENCH_*.json artifacts.

One validator per artifact, all in one place. Each checks two things:

  * schema — every section carries the keys its bench promises, so a silently
    dropped column fails CI rather than producing an artifact nobody can plot;
  * gates  — the claims the committed numbers are supposed to evidence (zero
    steady-state mallocs, zero control locks, corking engaged, ...) hold for the
    numbers actually committed.

Usage: validate_bench_json.py [file ...]     (default: every known artifact
present in the current directory; a known artifact that is MISSING is an error
only when named explicitly).
"""
import json
import os
import sys

# Shared latency-quantile columns (bench_json.h HistogramColumnsJson): every record that
# reports latency from an obs::Histogram carries exactly these.
HIST_KEYS = ('samples', 'mean_ns', 'p50_ns', 'p99_ns', 'p999_ns')


def require(point, keys, where):
    for key in keys:
        assert key in point, f'{where}: missing {key}'


def validate_interconnect(data):
    required = ('virtual_call_ns', 'mesh_uncontended_ns', 'xcore_spawn_ns',
                'allocs_per_op', 'xcore_pushes', 'xcore_wakeups', 'xcore_batched',
                'control_locks', 'fan_in')
    for section, p in data.items():
        assert isinstance(p, dict), f'{section}: section must be an object'
        require(p, required, section)
        assert isinstance(p['fan_in'], list) and p['fan_in'], f'{section}: empty fan_in'
        for point in p['fan_in']:
            require(point, ('senders', 'ns_per_op'), f'{section}: fan_in point')
        if p['allocs_per_op'] >= 0.05:
            sys.exit(f'{section}: steady-state spawns malloc '
                     f'(allocs_per_op {p["allocs_per_op"]})')
        if p['control_locks'] != 0:
            sys.exit(f'{section}: {p["control_locks"]} spinlock acquisitions on the '
                     f'dispatch path')
        if p['xcore_pushes'] > 0 and p['xcore_wakeups'] > p['xcore_pushes'] // 2:
            sys.exit(f'{section}: wake elision broken — {p["xcore_wakeups"]} wakeups '
                     f'for {p["xcore_pushes"]} pushes')


def validate_tx_batching(data):
    required = ('pipeline', 'requests', 'tx_data_segments', 'sends_coalesced',
                'bytes_per_segment', 'segments_per_op')
    total_coalesced = 0
    for section, points in data.items():
        assert isinstance(points, list) and points, f'{section}: empty section'
        for p in points:
            require(p, required, section)
            total_coalesced += p['sends_coalesced']
    if total_coalesced == 0:
        sys.exit('TX batching silently disabled: sends_coalesced == 0 everywhere')


def validate_alloc_pool(data):
    required = ('pipeline', 'requests', 'iobuf_allocs', 'heap_allocs',
                'pool_hits', 'pool_misses', 'allocs_per_op', 'pool_hit_rate')
    worst_allocs = 0.0
    best_hit_rate = 0.0
    for section, points in data.items():
        assert isinstance(points, list) and points, f'{section}: empty section'
        for p in points:
            require(p, required, section)
            if p['pipeline'] >= 8:
                worst_allocs = max(worst_allocs, p['allocs_per_op'])
            best_hit_rate = max(best_hit_rate, p['pool_hit_rate'])
    if best_hit_rate == 0.0:
        sys.exit('buffer pool silently disabled: pool_hit_rate == 0 everywhere')
    if worst_allocs > 0.05:
        sys.exit(f'steady-state datapath mallocs: allocs_per_op {worst_allocs}')


def validate_item_plane(data):
    required = ('mix_get_pct', 'value_size', 'ops', 'gets', 'sets', 'ns_per_op',
                'get_heap_allocs_per_op', 'set_heap_allocs_per_op',
                'heap_allocs_per_op', 'control_locks') + HIST_KEYS
    for section, points in data.items():
        assert isinstance(points, list) and points, f'{section}: empty section'
        for p in points:
            require(p, required, section)
            if p['ops'] == 0:
                sys.exit(f'{section}: mix {p["mix_get_pct"]} value {p["value_size"]} '
                         f'ran no ops')
    # The tentpole gates apply to the CURRENT implementation's sections, not the
    # committed pre-refactor baseline (schema-checked above, exempt below).
    for section, points in data.items():
        if section.endswith('_baseline'):
            continue
        # Smoke runs (CI, reduced op count) tolerate < 0.05; the committed full-run
        # section must measure exactly zero — the item plane's whole claim.
        limit = 0.05 if section.endswith('_smoke') else 0.0
        for p in points:
            where = f'{section}: mix {p["mix_get_pct"]} value {p["value_size"]}'
            exceeded = (p['get_heap_allocs_per_op'] > limit or
                        p['set_heap_allocs_per_op'] > limit)
            if exceeded:
                sys.exit(f'{where}: item plane mallocs in steady state '
                         f'(get {p["get_heap_allocs_per_op"]} '
                         f'set {p["set_heap_allocs_per_op"]}, limit {limit})')
            if p['control_locks'] != 0:
                sys.exit(f'{where}: {p["control_locks"]} control locks on the '
                         f'item path')
    # Perf gate: committed current 50/50 ns/op must beat the committed baseline at the
    # same value size (the mix where the refactor's SET-side win shows).
    current = data.get('item_plane')
    baseline = data.get('item_plane_baseline')
    if current and baseline:
        base_5050 = {p['value_size']: p['ns_per_op'] for p in baseline
                     if p['mix_get_pct'] == 50}
        for p in current:
            if p['mix_get_pct'] != 50 or p['value_size'] not in base_5050:
                continue
            if p['ns_per_op'] >= base_5050[p['value_size']]:
                sys.exit(f'item_plane: 50/50 ns/op {p["ns_per_op"]} did not improve '
                         f'on baseline {base_5050[p["value_size"]]} at value size '
                         f'{p["value_size"]}')


VALIDATORS = {
    'BENCH_interconnect.json': validate_interconnect,
    'BENCH_item_plane.json': validate_item_plane,
    'BENCH_tx_batching.json': validate_tx_batching,
    'BENCH_alloc_pool.json': validate_alloc_pool,
}


def main(argv):
    paths = argv[1:] or [name for name in VALIDATORS if os.path.exists(name)]
    if not paths:
        sys.exit('no BENCH_*.json artifacts found (run from the repo root)')
    for path in paths:
        name = os.path.basename(path)
        if name not in VALIDATORS:
            sys.exit(f'{path}: no validator for this artifact')
        with open(path) as f:
            data = json.load(f)
        assert isinstance(data, dict) and data, \
            f'{name}: top level must be a non-empty object'
        VALIDATORS[name](data)
        print(f'OK: {name} ({len(data)} section(s))')


if __name__ == '__main__':
    main(sys.argv)
