#!/usr/bin/env bash
# Line delta of src/ per subdirectory: lines added, removed and net between a base revision
# and the working tree (tracked files, so `git add` new files first).
# Usage: scripts/src_delta.sh [base-ref]   (default: HEAD~1)
set -euo pipefail

base="${1:-HEAD~1}"
cd "$(dirname "$0")/.."

git diff --numstat "$base" -- src/ |
  awk '$1 != "-" { split($3, parts, "/"); dir = parts[1] "/" parts[2];
                   added[dir] += $1; removed[dir] += $2 }
       END { for (d in added) print d, added[d], removed[d] }' |
  sort |
  awk '{ printf "%-16s %8d %8d %+8d\n", $1, $2, $3, $2 - $3; a += $2; r += $3 }
       BEGIN { printf "%-16s %8s %8s %8s\n", "dir", "added", "removed", "net" }
       END { printf "%-16s %8d %8d %+8d\n", "src/ total", a, r, a - r }'
