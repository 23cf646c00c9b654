#!/usr/bin/env bash
# Print the line counts of src/, tests/, bench/ and scripts/ in the working
# tree and at a git revision (default HEAD), and the change from the
# revision to the tree.
# The working tree counts the tracked files and the untracked ones that git
# does not ignore.
#
#   scripts/lines.sh           # working tree against HEAD
#   scripts/lines.sh main~3    # working tree against main~3
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-HEAD}
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null \
    || { echo "lines.sh: unknown revision $rev" >&2; exit 2; }
printf '%-6s %8s %8s %8s\n' dir "$rev" tree delta
for dir in src tests bench scripts; do
    old=$(git archive "$rev" -- "$dir" | tar -xO | wc -l)
    new=$(git ls-files -z --cached --others --exclude-standard -- "$dir" \
          | xargs -0 -r sh -c 'for f; do [ -f "$f" ] && cat "$f"; done' sh | wc -l)
    printf '%-6s %8d %8d %+8d\n' "$dir" "$old" "$new" $((new - old))
done
