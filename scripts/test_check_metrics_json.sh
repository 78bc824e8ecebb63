#!/usr/bin/env bash
# Self-test of check_metrics_json.sh's label matching on two crafted
# dumps:
#   * a labelled counter whose zero-valued series is registered first
#     still passes a requirement naming its non-zero series, and the
#     unlabelled requirement passes on any non-zero series;
#   * a requirement naming a label no series carries fails, as does a
#     counter whose every series is zero.
#
#   ./scripts/test_check_metrics_json.sh
#
# Exits non-zero, naming the case, on the first unexpected result.

set -u

here="$(cd "$(dirname "$0")" && pwd)"
check="$here/check_metrics_json.sh"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

dump() {  # dump FILE REUSED REFRESHED
  cat >"$1" <<EOF
{"schema": "seqge-metrics-v1", "metrics": [
  {"name": "seqge_serve_engine_shards_total", "type": "counter",
   "labels": {"path": "reused"}, "value": $2},
  {"name": "seqge_serve_engine_shards_total", "type": "counter",
   "labels": {"path": "refreshed"}, "value": $3}
]}
EOF
}

dump "$tmp/zero_first.json" 0 24
dump "$tmp/all_zero.json" 0 0

status=0
expect() {  # expect pass|fail FILE REQUIREMENT...
  local want="$1" file="$2"
  shift 2
  if "$check" "$file" "$@" >/dev/null 2>&1; then got=pass; else got=fail; fi
  if [ "$got" != "$want" ]; then
    echo "test_check_metrics_json: want $want, got $got: $file $*" >&2
    status=1
  fi
}

name=seqge_serve_engine_shards_total
expect pass "$tmp/zero_first.json" "counter=$name{path=refreshed}"
expect pass "$tmp/zero_first.json" "counter=$name{path=\"refreshed\"}"
expect pass "$tmp/zero_first.json" "counter=$name"
expect pass "$tmp/zero_first.json" "counter0=$name{path=reused}"
expect fail "$tmp/zero_first.json" "counter=$name{path=reused}"
expect fail "$tmp/zero_first.json" "counter=$name{path=rebuilt}"
expect fail "$tmp/zero_first.json" "counter0=$name{path=rebuilt}"
expect fail "$tmp/zero_first.json" "counter=$name{path=refreshed"
expect fail "$tmp/all_zero.json" "counter=$name"
expect fail "$tmp/all_zero.json" "counter=$name{path=refreshed}"

[ "$status" -eq 0 ] && echo "test_check_metrics_json: OK"
exit "$status"
