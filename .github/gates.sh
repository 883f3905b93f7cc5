#!/usr/bin/env bash
# Runs every row of .github/gates.tsv over the workspace, then checks
# docs/requirement-matrix.md against the table and the test sources.
# Takes no arguments, works from any directory, exits 1 on any failure.
#
# Kinds: `forbid` fails on a match of the pattern (PCRE, `\s` spans
# lines) anywhere in the view, `size` when the view has more non-blank
# lines than the ceiling given as the pattern. Views keep line numbers:
# `raw` is the file as it is, `code` blanks comment lines (`//` in .rs,
# `#` in .toml), `src` also drops everything from the first
# `#[cfg(test)]`. A forbid row's witness (`\n` = newline), viewed as a
# file of its first path's type, must trip the row, so a row that cannot
# bite fails; every path must match a file, so a rename cannot empty a
# row.
set -u
cd "$(dirname "$0")/.." || exit 1
shopt -s globstar nullglob
status=0
fail() { echo "::error::$*"; status=1; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

view() { # view FILE VIEW
  [[ $2 == raw ]] && { cat "$1"; return; }
  local c=// cut=
  [[ $1 == *.toml ]] && c='#'
  [[ $2 == src ]] && cut='/#\[cfg\(test\)\]/,$d'
  sed -E -e "s@^[[:space:]]*$c.*\$@@" -e "$cut" "$1"
}

hit() { # hit PATTERN FILE VIEW: prints the view's first match as LINE: TEXT; grep's status
  view "$2" "$3" | grep -qPz -- "$1" || return
  view "$2" "$3" >"$tmp/v"
  local at
  at=$(grep -m1 -Pzob -- "$1" "$tmp/v" | tr '\0' '\n' | head -1)
  echo "$(($(head -c "${at%%:*}" "$tmp/v" | wc -l) + 1)): ${at#*:}"
}

ids=()
while IFS=$'\t' read -r id kind v paths pat witness why; do
  [[ $id == '#'* || -z $id ]] && continue
  ids+=("$id")
  [[ $kind =~ ^(forbid|size)$ && $v =~ ^(raw|code|src)$ ]] || { fail "$id: unknown kind $kind or view $v"; continue; }
  files=()
  read -ra ps <<<"$paths"
  for p in "${ps[@]}"; do
    m=($p)
    if [[ -e ${m[0]-} ]]; then files+=("${m[@]}"); else fail "$id: $p matches no file"; fi
  done
  if [[ $kind == size ]]; then
    n=0
    for f in "${files[@]}"; do n=$((n + $(view "$f" "$v" | grep -c '[^[:space:]]'))); done
    echo "$id: $n non-blank $v lines, ceiling $pat"
    ((n <= pat)) || fail "$id: $n lines, over the ceiling of $pat — $why"
    continue
  fi
  w=${paths%% *}
  w=$tmp/witness.${w##*.}
  printf '%s\n' "${witness//\\n/$'\n'}" >"$w"
  hit "$pat" "$w" "$v" >/dev/null || fail "$id: its witness does not trip its own pattern"
  for f in "${files[@]}"; do
    h=$(hit "$pat" "$f" "$v")
    case $? in
      0) fail "$id: $f:$h — $why" ;;
      1) ;;
      *) fail "$id: grep failed on $f" ;;
    esac
  done
  echo "$id: ${#files[@]} files clean"
done <.github/gates.tsv

named=' '
while IFS='|' read -r _ n _ _ tests gates _; do
  n=${n//[[:space:]]/}
  t=$(grep -oP '`\K[^` ]+\.rs::\w+(?=`)' <<<"$tests")
  [[ -n $t ]] || fail "requirement matrix row $n names no test"
  for t in $t; do
    grep -qP "\bfn ${t##*::}\b" "${t%::*}" 2>/dev/null || fail "requirement matrix row $n: no fn ${t##*::} in ${t%::*}"
  done
  for g in $(grep -oP '`\K[a-z0-9-]+(?=`)' <<<"$gates"); do
    [[ " ${ids[*]} " == *" $g "* ]] || fail "requirement matrix row $n: $g is not a row of gates.tsv"
    named+="$g "
  done
done < <(grep -P '^\|\s*\d+\s*\|' docs/requirement-matrix.md)
for id in "${ids[@]}"; do
  [[ $named == *" $id "* ]] || fail "$id is named by no row of docs/requirement-matrix.md"
done
exit $status
