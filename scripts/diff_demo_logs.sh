#!/usr/bin/env bash
# Run the five demo smokes of CI in this tree and in another checkout of the
# repo (say, a pull request's base commit), then compare each pair of run
# logs byte for byte. Prints "same" or "differs" per smoke and exits 1 when
# any log differs. A change that adds log records differs on purpose.
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
  "--seed 3 --mode locks --drop-rate 0.3"
  "--seed 4 --drop-rate 0.3"
  "--seed 4 --drop-rate 0.6"
)

run_smokes() {  # run_smokes TREE DEST: one log per smoke, DEST/1.jsonl ...
  local tree=$1 dest=$2 where i=0
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
}

run_smokes "$here" "$out/here"
run_smokes "$other" "$out/other"
status=0
i=0
for flags in "${smokes[@]}"; do
  i=$((i + 1))
  if cmp -s "$out/here/$i.jsonl" "$out/other/$i.jsonl"; then
    echo "same     demo auction $flags"
  else
    echo "differs  demo auction $flags"
    status=1
  fi
done
exit $status
