#!/usr/bin/env bash
# Fail when a header under src/ is reachable from no program.
#
# Starts from every .cpp/.hpp under bench/, examples/ and perfbench/,
# follows each `#include "..."` (resolved against src/, the repo root and
# the including file's directory), and for every src/ header reached also
# follows the includes of its companion .cpp, since that is what the
# program links. Any src/**/*.hpp left unvisited is listed and the script
# exits non-zero: code that only tests use does not belong in src/.
#
#   ./scripts/check_src_reachable.sh   # run from anywhere inside the repo

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root" || exit 1

declare -A seen=()
queue=()

visit() {
  local f="$1"
  [ -f "$f" ] || return 0
  [ -n "${seen[$f]+x}" ] && return 0
  seen[$f]=1
  queue+=("$f")
  if [[ "$f" == src/*.hpp ]]; then
    visit "${f%.hpp}.cpp"
  fi
}

while IFS= read -r f; do visit "$f"; done < <(
  find bench examples perfbench -name '*.cpp' -o -name '*.hpp' 2>/dev/null |
    sort)

i=0
while [ "$i" -lt "${#queue[@]}" ]; do
  f="${queue[$i]}"
  i=$((i + 1))
  dir="$(dirname "$f")"
  while IFS= read -r inc; do
    for cand in "src/$inc" "$inc" "$dir/$inc"; do
      if [ -f "$cand" ]; then
        visit "$(realpath --relative-to=. "$cand")"
        break
      fi
    done
  done < <(sed -nE 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"([^"]+)".*/\1/p' "$f")
done

fail=0
total=0
while IFS= read -r h; do
  total=$((total + 1))
  if [ -z "${seen[$h]+x}" ]; then
    echo "UNREACHABLE: $h" >&2
    fail=1
  fi
done < <(find src -name '*.hpp' | sort)

if [ "$fail" -ne 0 ]; then
  echo "src reachability check failed: the headers above are included" \
       "by no bench, example or perfbench program" >&2
  exit 1
fi
echo "src reachability check passed ($total headers reachable)"
