#!/usr/bin/env bash
# e2e_cluster.sh — kill-a-member end-to-end exercise against real
# processes. Three `neusight serve` members form a token-protected proxy
# cluster; one is SIGKILLed mid-traffic. The gate asserts:
#
#   1. every request sent to a surviving member answers 200 throughout
#      the outage — replica fall-through, never a sustained 502;
#   2. the failure detector evicts the corpse (health endpoint reports
#      it dead, the ring stops assigning it shards);
#   3. restarting the member at the same address with -peers naming one
#      survivor gives it the whole membership before it listens, readmits
#      it, and the ring heals.
#
# Run by scripts/check.sh in full mode; standalone: scripts/e2e_cluster.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TOKEN=e2e-cluster-secret
GPUS=(P4 P100 V100 T4 A100-40GB A100-80GB L4 H100 B200 MI100 MI210 MI250)

workdir=$(mktemp -d)
pids=()
cleanup() {
  ((${#pids[@]})) && kill -9 "${pids[@]}" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "e2e_cluster: building neusight"
go build -o "$workdir/neusight" ./cmd/neusight

# Three distinct free ports: every socket stays bound until all three are
# printed, so the kernel cannot hand one port out twice.
read -r PA PB PC < <(python3 -c '
import socket
socks = [socket.socket() for _ in range(3)]
for s in socks:
    s.bind(("127.0.0.1", 0))
print(*(s.getsockname()[1] for s in socks))
')
A=127.0.0.1:$PA
B=127.0.0.1:$PB
C=127.0.0.1:$PC

start_member() { # addr cluster-flag log-name -> appends pid to $pids
  local addr=$1 flag=$2 log=$3
  "$workdir/neusight" serve -addr "$addr" -engines roofline -steer proxy \
    -cluster-token "$TOKEN" -health-interval 100ms $flag \
    >"$workdir/$log.log" 2>&1 &
  pids+=($!)
  disown $! # keep SIGKILL job-control noise out of the gate's output
}

wait_ready() { # addr
  for _ in $(seq 1 100); do
    if curl -fsS -o /dev/null "http://$1/v2/healthz" 2>/dev/null; then return 0; fi
    sleep 0.1
  done
  echo "e2e_cluster: member $1 never became ready" >&2
  sed 's/^/  /' "$workdir"/*.log >&2 || true
  return 1
}

member_state() { # observer-addr member-addr -> prints alive|suspect|dead|missing
  curl -fsS -H "Authorization: Bearer $TOKEN" "http://$1/v2/cluster/health" |
    python3 -c '
import json, sys
d = json.load(sys.stdin)
print(next((m["state"] for m in d["members"] if m["addr"] == sys.argv[1]), "missing"))
' "$2"
}

predict() { # gpu target-addr -> prints http status
  curl -s -o /dev/null -w '%{http_code}' -X POST \
    -H 'Content-Type: application/json' \
    -d "{\"op\":\"bmm\",\"b\":4,\"m\":128,\"k\":128,\"n\":128,\"dtype\":\"fp16\",\"gpu\":\"$1\",\"engine\":\"roofline\"}" \
    "http://$2/v2/predict/kernel"
}

fire_round() { # fire one request per GPU at each surviving member; fail on any non-200
  local addr code g
  for addr in "$@"; do
    for g in "${GPUS[@]}"; do
      code=$(predict "$g" "$addr")
      if [[ "$code" != 200 ]]; then
        echo "e2e_cluster: POST /v2/predict/kernel gpu=$g via $addr -> $code (want 200)" >&2
        return 1
      fi
    done
  done
}

echo "e2e_cluster: starting 3-member cluster ($A, $B, $C)"
start_member "$A" "-peers $B,$C" a
start_member "$B" "-peers $A,$C" b
start_member "$C" "-peers $A,$B" c
B_PID=${pids[1]}
wait_ready "$A"; wait_ready "$B"; wait_ready "$C"

# Control-plane auth: tokenless access to any cluster route is a 401.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$A/v2/cluster/ring")
if [[ "$code" != 401 ]]; then
  echo "e2e_cluster: tokenless /v2/cluster/ring -> $code (want 401)" >&2
  exit 1
fi

# The ring hands every shard a replica distinct from its primary.
curl -fsS -H "Authorization: Bearer $TOKEN" "http://$A/v2/cluster/ring" |
  python3 -c '
import json, sys
d = json.load(sys.stdin)
bad = [a for a in d["assignments"] if not a.get("replica") or a["replica"] == a["owner"]]
if bad:
    raise SystemExit(f"e2e_cluster: {len(bad)} assignments without a distinct replica")
'

echo "e2e_cluster: pre-kill traffic round"
fire_round "$A" "$B" "$C"

echo "e2e_cluster: SIGKILL member $B (pid $B_PID)"
kill -9 "$B_PID"

# Mid-outage: keep firing at the survivors until A declares B dead.
# Every single response must be 200 — B's shards fail over to replicas.
deadline=$((SECONDS + 20))
while :; do
  fire_round "$A" "$C"
  state=$(member_state "$A" "$B")
  [[ "$state" == dead ]] && break
  if ((SECONDS >= deadline)); then
    echo "e2e_cluster: $B never declared dead (state=$state)" >&2
    exit 1
  fi
done
echo "e2e_cluster: $B evicted (dead); replica served every request"

# Eviction reached the ring: no shard is assigned to the corpse.
curl -fsS -H "Authorization: Bearer $TOKEN" "http://$A/v2/cluster/ring" |
  python3 -c '
import json, sys
d = json.load(sys.stdin)
dead = sys.argv[1]
if dead in d["members"]:
    raise SystemExit(f"e2e_cluster: dead member {dead} still in ring members")
owned = [a for a in d["assignments"] if a["owner"] == dead or a.get("replica") == dead]
if owned:
    raise SystemExit(f"e2e_cluster: dead member {dead} still owns {len(owned)} shards")
' "$B"

echo "e2e_cluster: restarting $B with -peers $A only"
start_member "$B" "-peers $A" b2
wait_ready "$B"

# B never named C: its one gossip round with A before the listener opened
# must already have taught it C, alive.
state=$(member_state "$B" "$C")
if [[ "$state" != alive ]]; then
  echo "e2e_cluster: restarted $B lists $C as $state at its first healthz (want alive)" >&2
  exit 1
fi

deadline=$((SECONDS + 20))
until [[ $(member_state "$A" "$B") == alive ]]; do
  if ((SECONDS >= deadline)); then
    echo "e2e_cluster: restarted $B never readmitted (state=$(member_state "$A" "$B"))" >&2
    exit 1
  fi
  sleep 0.2
done
echo "e2e_cluster: $B readmitted (alive); ring healed"

echo "e2e_cluster: post-restart traffic round"
fire_round "$A" "$B" "$C"

echo "e2e_cluster: OK"
