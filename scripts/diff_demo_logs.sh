#!/usr/bin/env bash
# Run the five demo smokes of CI and every tests/scenarios/*.scn of this tree
# in this tree and in another checkout of the repo (say, a pull request's
# base commit), then compare each pair of run logs byte for byte. Both trees
# run this tree's scenario files. Prints "same" or "differs" per log and
# exits 1 when any log differs. A change that adds log records differs on
# purpose.
#
#   scripts/diff_demo_logs.sh path/to/other/checkout
set -u

if [ $# -ne 1 ] || [ ! -d "$1/src/interopsim" ]; then
  echo "usage: $0 path/to/other/checkout" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd -P)
other=$(cd "$1" && pwd -P)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# the flags of each `simctl demo auction` smoke in .github/workflows/tests.yml
smokes=(
  "--seed 1"
  "--seed 2 --mode locks --drop-rate 0.1"
  "--seed 5 --mode locks --drop-rate 0.3"
  "--seed 4 --drop-rate 0.3"
  "--seed 4 --drop-rate 0.6"
)
scenarios=("$here"/tests/scenarios/*.scn)

run_tree() {  # run_tree TREE DEST: DEST/1.jsonl ... per smoke, DEST/NAME.jsonl per scenario
  local tree=$1 dest=$2 where i=0 scn name
  where=$(PYTHONPATH="$tree/src" python3 -c 'import interopsim, os; print(os.path.realpath(interopsim.__file__))')
  case $where in
    "$tree"/*) ;;
    *) echo "interopsim imported from $where, not from $tree" >&2; exit 2 ;;
  esac
  mkdir -p "$dest"
  for flags in "${smokes[@]}"; do
    i=$((i + 1))
    # shellcheck disable=SC2086  # flags split into words on purpose
    PYTHONPATH="$tree/src" python3 -m interopsim.cli demo auction $flags \
      --out "$dest/$i.json" --log "$dest/$i.jsonl" >/dev/null 2>&1
  done
  for scn in "${scenarios[@]}"; do
    name=$(basename "$scn" .scn)
    PYTHONPATH="$tree/src" python3 -m interopsim.cli run "$scn" \
      --out "$dest/$name.json" --log "$dest/$name.jsonl" >/dev/null 2>&1
  done
}

compare() {  # compare LOG LABEL
  if cmp -s "$out/here/$1" "$out/other/$1"; then
    echo "same     $2"
  else
    echo "differs  $2"
    status=1
  fi
}

run_tree "$here" "$out/here"
run_tree "$other" "$out/other"
status=0
i=0
for flags in "${smokes[@]}"; do
  i=$((i + 1))
  compare "$i.jsonl" "demo auction $flags"
done
for scn in "${scenarios[@]}"; do
  name=$(basename "$scn" .scn)
  compare "$name.jsonl" "run tests/scenarios/$name.scn"
done
exit $status
