#!/usr/bin/env bash
# Validate a --metrics-out dump (seqge-metrics-v1) and assert that
# required metrics are present and non-trivial.
#
#   ./scripts/check_metrics_json.sh FILE [span=NAME|counter=NAME|
#                                         counter0=NAME|gauge=NAME|
#                                         histogram=NAME]...
#
# Checks always applied to FILE:
#   * parses as JSON with "schema": "seqge-metrics-v1"
#   * "metrics" is a list; every entry has name/type/labels and the
#     per-type value fields (counter/gauge: value; histogram: count,
#     sum, max, p50/p95/p99, bounds, buckets with len(bounds)+1)
#
# Each extra argument is a requirement:
#   span=walk_gen        seqge_span_wall_us{span="walk_gen"} exists
#                        with count > 0 (and its cpu twin exists)
#   counter=NAME         counter NAME exists with value > 0
#   counter0=NAME        counter NAME exists (zero allowed — for shed
#                        counters that legitimately stay 0 in a
#                        well-provisioned leg)
#   gauge=NAME           gauge NAME exists (any value)
#   histogram=NAME       histogram NAME exists with count > 0
#
# NAME may carry labels, NAME{key=value} or NAME{k1=v1,k2="v2"} (quote
# the argument in a shell when it has a comma): the requirement then
# applies to the series whose labels include those pairs. A requirement
# holds when any series it selects meets it, whatever order the series
# were registered in.
#
# Exits non-zero listing every unmet requirement. Used by the CI
# metrics job on the bench_serving / bench_pipeline / embedding_server
# dumps and by the net job on the bench_net dump (seqge_net_*).

set -u

if [ "$#" -lt 1 ]; then
  echo "usage: $0 FILE [span=NAME|counter=NAME|counter0=NAME|gauge=NAME|histogram=NAME]..." >&2
  echo "  (NAME may be NAME{key=value,...})" >&2
  exit 2
fi

file="$1"
shift

if [ ! -f "$file" ]; then
  echo "check_metrics_json: no such file: $file" >&2
  exit 1
fi

python3 - "$file" "$@" <<'PY'
import json
import sys

path = sys.argv[1]
reqs = sys.argv[2:]

fail = []

try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"check_metrics_json: {path}: not valid JSON: {e}",
          file=sys.stderr)
    sys.exit(1)

if doc.get("schema") != "seqge-metrics-v1":
    fail.append(f'schema is {doc.get("schema")!r}, want "seqge-metrics-v1"')

metrics = doc.get("metrics")
if not isinstance(metrics, list):
    fail.append('"metrics" missing or not a list')
    metrics = []

for i, m in enumerate(metrics):
    where = f"metrics[{i}]"
    if not isinstance(m, dict):
        fail.append(f"{where}: not an object")
        continue
    name = m.get("name")
    where = f"metrics[{i}] ({name})"
    if not isinstance(name, str) or not name:
        fail.append(f"{where}: missing name")
    mtype = m.get("type")
    if mtype not in ("counter", "gauge", "histogram"):
        fail.append(f"{where}: bad type {mtype!r}")
        continue
    if not isinstance(m.get("labels"), dict):
        fail.append(f"{where}: missing labels object")
    if mtype in ("counter", "gauge"):
        if not isinstance(m.get("value"), int):
            fail.append(f"{where}: {mtype} without integer value")
    else:
        for key in ("count", "sum", "max", "p50", "p95", "p99"):
            if not isinstance(m.get(key), (int, float)):
                fail.append(f"{where}: histogram missing {key}")
        bounds = m.get("bounds")
        buckets = m.get("buckets")
        if not isinstance(bounds, list) or not isinstance(buckets, list):
            fail.append(f"{where}: histogram missing bounds/buckets")
        elif len(buckets) != len(bounds) + 1:
            fail.append(f"{where}: {len(buckets)} buckets for "
                        f"{len(bounds)} bounds (want bounds+1)")
        elif isinstance(m.get("count"), int) and sum(buckets) != m["count"]:
            fail.append(f"{where}: bucket sum {sum(buckets)} != count "
                        f"{m['count']}")


def select(name, mtype, labels=None):
    """Every series of NAME and type whose labels include `labels`."""
    out = []
    for m in metrics:
        if not isinstance(m, dict) or m.get("name") != name:
            continue
        if m.get("type") != mtype:
            continue
        have = m.get("labels")
        if labels and not (isinstance(have, dict) and
                           all(have.get(k) == v for k, v in labels.items())):
            continue
        out.append(m)
    return out


def parse_name(text):
    """NAME or NAME{k=v,...} -> (NAME, {k: v}), None if malformed."""
    if "{" not in text:
        return text, {}
    base, _, rest = text.partition("{")
    if not base or not rest.endswith("}"):
        return None
    labels = {}
    for pair in filter(None, rest[:-1].split(",")):
        key, eq, value = pair.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            return None
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        labels[key] = value
    return base, labels


for req in reqs:
    kind, _, text = req.partition("=")
    parsed = parse_name(text) if text else None
    if parsed is None:
        fail.append(f"malformed requirement {req!r}")
        continue
    name, labels = parsed
    if kind == "span":
        wall = select("seqge_span_wall_us", "histogram", {"span": name})
        cpu = select("seqge_span_cpu_us", "histogram", {"span": name})
        if not wall or not cpu:
            fail.append(f"span {name!r}: wall/cpu histograms missing")
        elif not any(m.get("count") for m in wall):
            fail.append(f"span {name!r}: recorded zero samples")
    elif kind == "counter":
        found = select(name, "counter", labels)
        if not found:
            fail.append(f"counter {text!r}: missing")
        elif not any(m.get("value") for m in found):
            fail.append(f"counter {text!r}: value is zero")
    elif kind == "counter0":
        if not select(name, "counter", labels):
            fail.append(f"counter {text!r}: missing")
    elif kind == "gauge":
        if not select(name, "gauge", labels):
            fail.append(f"gauge {text!r}: missing")
    elif kind == "histogram":
        found = select(name, "histogram", labels)
        if not found:
            fail.append(f"histogram {text!r}: missing")
        elif not any(m.get("count") for m in found):
            fail.append(f"histogram {text!r}: recorded zero samples")
    else:
        fail.append(f"unknown requirement kind {kind!r} in {req!r}")

if fail:
    for f_ in fail:
        print(f"check_metrics_json: {path}: {f_}", file=sys.stderr)
    sys.exit(1)

print(f"check_metrics_json: {path}: OK "
      f"({len(metrics)} metrics, {len(reqs)} requirements)")
PY
