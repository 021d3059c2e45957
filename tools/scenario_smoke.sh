#!/usr/bin/env bash
# Scenario smoke: short runs of example_run_experiment over every scenario
# family (hotspot, trace, closed-loop, DAG, serving, faults, three-tier,
# fluid), each per protocol where it applies, plus the Homa knobs and the
# wasted-bandwidth probe. It stops at the first run that fails.
#
#   tools/scenario_smoke.sh ./build/example_run_experiment
#
# The output is deterministic, so a change that must leave results alone
# can be checked by running this script against two builds of the runner
# and comparing the outputs with cmp.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <example_run_experiment binary>" >&2
  exit 2
fi
runner=$(realpath "$1")
cd "$(dirname "$0")/.."  # the trace path below is relative to the repo

protocols="Homa Basic pHost PIAS pFabric NDP Stream-SC Stream-MC"

# Incast hotspot point per protocol
for proto in $protocols; do
  echo "=== $proto incast ==="
  "$runner" --protocol "$proto" \
    --workload W2 --load 0.5 --window-ms 2 \
    --pattern incast --hotspots 2 --hotspot-degree 16
done

# Trace-replay point per protocol
for proto in $protocols; do
  echo "=== $proto trace ==="
  "$runner" --protocol "$proto" \
    --single-rack --window-ms 2 \
    --trace examples/traces/smoke.trace
done

# Closed-loop + ON-OFF point per protocol
for proto in $protocols; do
  echo "=== $proto closed-loop ==="
  "$runner" --protocol "$proto" \
    --single-rack --workload W1 --window-ms 2 \
    --pattern closed-loop --window 4 --think-us 2
  echo "=== $proto closed-loop + on-off ==="
  "$runner" --protocol "$proto" \
    --single-rack --workload W1 --window-ms 2 \
    --pattern closed-loop --window 4 --on-off
done

# DAG fan-out/fan-in tree per protocol
for proto in $protocols; do
  echo "=== $proto dag ==="
  "$runner" --protocol "$proto" \
    --single-rack --workload W1 --window-ms 2 \
    --pattern dag --dag-fanout 8 --dag-depth 2 --dag-roots 4 \
    --dag-stage-sizes 16000,2000
done

# DAG with multi-parent joins (general-DAG point)
"$runner" --protocol Homa \
  --single-rack --window-ms 2 \
  --pattern dag --dag-fanout 4 --dag-depth 3 --dag-roots 4 \
  --dag-join 0.5

# Multi-tenant serving point per protocol (p2c + hedging + rr)
for proto in $protocols; do
  echo "=== $proto serving ==="
  "$runner" --protocol "$proto" \
    --single-rack --window-ms 2 \
    --tenants 'name=web,wl=W1,load=0.4,clients=4,group=fast;name=batch,wl=W2,mode=closed,window=4,clients=2,group=bulk' \
    --replicas 'name=fast,n=5,lb=p2c,hedge=p90,hedge_min=8;name=bulk,n=0,lb=rr'
done

# DAG + ON-OFF bursty coordinators
"$runner" --protocol Homa \
  --single-rack --workload W1 --window-ms 2 \
  --pattern dag --dag-fanout 8 --dag-depth 2 --dag-roots 4 --on-off

# Bursty open-loop point (ON-OFF over incast)
"$runner" --protocol Homa \
  --workload W2 --load 0.5 --window-ms 2 \
  --pattern incast --hotspots 2 --hotspot-degree 16 --on-off

# Fault point per protocol (mid-run flap + degraded link)
for proto in $protocols; do
  echo "=== $proto faults ==="
  "$runner" --protocol "$proto" \
    --workload W2 --load 0.5 --window-ms 2 \
    --fault flap=aggr0,at=500us,for=200us \
    --fault degrade=host3,at=200us,drop=0.01
done

# Dead aggr switch with ECMP reroute
"$runner" --protocol Homa \
  --workload W2 --load 0.5 --window-ms 2 \
  --ecmp --fault kill=aggr1,at=500us

# Three-tier oversubscribed-core point per protocol
for proto in $protocols; do
  echo "=== $proto three-tier oversub=4 ==="
  "$runner" --protocol "$proto" \
    --workload W2 --load 0.5 --window-ms 2 \
    --topo racks=8,hosts=4,aggr=2,core=2,oversub=4
done

# Fluid hybrid point per protocol (two- and three-tier)
for proto in $protocols; do
  echo "=== $proto fluid (two-tier) ==="
  "$runner" --protocol "$proto" \
    --workload W4 --load 0.5 --window-ms 2 --fluid 20000
  echo "=== $proto fluid (three-tier oversub=4) ==="
  "$runner" --protocol "$proto" \
    --workload W4 --load 0.5 --window-ms 2 --fluid 20000 \
    --topo racks=8,hosts=4,aggr=2,core=2,oversub=4
done

# Fluid threshold extremes (all-fluid and all-packet)
"$runner" --protocol Homa \
  --workload W4 --load 0.5 --window-ms 2 --fluid 0
"$runner" --protocol Homa \
  --workload W4 --load 0.5 --window-ms 2 --fluid 1099511627776
# All-fluid solver stress: many flows per host link (incast), and
# binding rack trunks (one aggr switch).
"$runner" --protocol Homa \
  --workload W4 --load 0.6 --window-ms 2 --fluid 0 \
  --pattern incast --hotspots 4 --hotspot-degree 16
"$runner" --protocol Homa \
  --workload W4 --load 0.8 --window-ms 2 --fluid 0 --topo aggr=1

# Three-tier core-link flap and dead core with ECMP reroute
"$runner" --protocol Homa \
  --workload W2 --load 0.5 --window-ms 2 \
  --topo racks=8,hosts=4,aggr=2,core=2,oversub=2 \
  --fault flap=core1,at=500us,for=200us
"$runner" --protocol Homa \
  --workload W2 --load 0.5 --window-ms 2 --ecmp \
  --topo racks=8,hosts=4,aggr=2,core=2,oversub=2 \
  --fault kill=core0,at=500us

# Homa knobs (Homa is the default protocol; under any other the runner
# refuses them), the wasted-bandwidth probe, and the pattern knobs the
# runs above leave at their defaults
echo "=== Homa knobs (single rack) ==="
"$runner" --single-rack --workload W4 --window-ms 2 \
  --wire-priorities 4 --sched 5 --unsched 2 --overcommit 3 \
  --grant-policy fifo --reservation 0.1 --wasted-bw
echo "=== Homa knobs (racks=4,hosts=4) ==="
"$runner" --topo racks=4,hosts=4 --workload W3 --window-ms 2 \
  --cutoff 1000 --cutoff 5000 --unsched 3 --unsched-bytes 5000 \
  --no-incast-control --grant-policy rr --wasted-bw
echo "=== Homa unlimited grants, rack-skew ==="
"$runner" --topo racks=4,hosts=4 --workload W2 --window-ms 2 \
  --grant-policy unlimited --pattern rack-skew --rack-local 0.7
echo "=== pareto senders, pareto on-off ==="
"$runner" --single-rack --workload W2 --window-ms 2 \
  --pattern pareto --pareto-alpha 1.5 \
  --on-off --on-us 50 --off-us 150 --on-off-dist pareto --on-off-shape 2
echo "=== incast hotspot fraction ==="
"$runner" --topo racks=4,hosts=4 --workload W2 --load 0.5 --window-ms 2 \
  --pattern incast --hotspots 2 --hotspot-degree 8 --hotspot-fraction 0.5
echo "=== pHost wasted bandwidth ==="
"$runner" --protocol pHost --single-rack --workload W4 --window-ms 2 \
  --wasted-bw
