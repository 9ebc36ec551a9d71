#!/usr/bin/env bash
# Non-test Go lines of code, per package: lines of non-test .go files that
# are neither blank nor comment-only (a line whose first non-blank
# characters are //, or a line inside a /* */ block). Files under a
# testdata directory are not counted. The root module's packages come
# first, with their total; each nested module (a directory with its own
# go.mod, such as cmd/bench or scripts/deadapi) follows with its own
# packages and total, outside the root module's.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh BASE     # BASE and the working tree side by side, and the delta
#
# BASE is any git revision. It is read with git ls-tree and git show, so
# nothing is checked out and nothing in the tree is written.
set -euo pipefail
export LC_ALL=C

if [[ $# -gt 1 ]]; then
	echo "usage: scripts/loc.sh [BASE]" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
if [[ $# -eq 1 ]] && ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
	echo "loc.sh: $1 is not a revision" >&2
	exit 2
fi

# count: the number of code lines on stdin.
count() {
	awk '
		{ line = $0; sub(/^[ \t]+/, "", line); sub(/[ \t\r]+$/, "", line) }
		inblock {
			if ((i = index(line, "*/")) == 0) next
			inblock = 0
			line = substr(line, i + 2); sub(/^[ \t]+/, "", line)
		}
		line == "" || line ~ /^\/\// { next }
		line ~ /^\/\*/ {
			rest = substr(line, 3)
			if ((i = index(rest, "*/")) == 0) { inblock = 1; next }
			line = substr(rest, i + 2); sub(/^[ \t]+/, "", line)
			if (line == "" || line ~ /^\/\//) next
		}
		{ n++ }
		END { print n + 0 }
	'
}

is_counted() { [[ $1 == *.go && $1 != *_test.go && $1 != testdata/* && $1 != */testdata/* ]]; }

# tally SOURCE: "package lines" for every counted file of SOURCE, which is
# "work" or a git revision.
tally() {
	local f
	if [[ $1 == work ]]; then
		git ls-files --cached --others --exclude-standard -- '*.go' | while read -r f; do
			if is_counted "$f" && [[ -f $f ]]; then
				echo "$(dirname "$f") $(count <"$f")"
			fi
		done
	else
		git ls-tree -r --name-only "$1" -- | while read -r f; do
			if is_counted "$f"; then
				echo "$(dirname "$f") $(git show "$1:$f" | count)"
			fi
		done
	fi
}

# The nested modules of the working tree and of BASE, space-separated.
nested=$(
	{
		git ls-files --cached --others --exclude-standard -- '*go.mod'
		if [[ $# -eq 1 ]]; then git ls-tree -r --name-only "$rev" --; fi
	} | grep -E '^(.*/)?go\.mod$' | grep -v -E '(^|/)testdata/' | grep -v '^go\.mod$' |
		sed 's|/go\.mod$||' | sort -u | tr '\n' ' '
)

{
	tally work | sed 's/^/w /'
	if [[ $# -eq 1 ]]; then
		tally "$rev" | sed 's/^/b /'
	fi
} | awk '
	# "w|b package lines" in; "package work base" out, one line a package.
	{ pkg[$2] = 1; n[$1, $2] += $3 }
	END { for (p in pkg) print p, n["w", p] + 0, n["b", p] + 0 }
' | sort | awk -v have_base=$# -v base_name="${1:-}" -v nested="$nested" '
	function row(name, w, b) {
		if (have_base) printf "%-36s %8d %8d %+8d\n", name, b, w, w - b
		else printf "%-36s %8d\n", name, w
	}
	BEGIN {
		if (have_base) printf "%-36s %8s %8s %8s\n", "package", substr(base_name, 1, 8), "work", "delta"
		else printf "%-36s %8s\n", "package", "lines"
		nm = split(nested, mods, " ")
	}
	# module: the innermost nested module holding package p, or "" for the
	# root module.
	function module(p,   i, m) {
		m = ""
		for (i = 1; i <= nm; i++)
			if ((p == mods[i] || index(p, mods[i] "/") == 1) && length(mods[i]) > length(m)) m = mods[i]
		return m
	}
	{
		m = module($1)
		if (m != "") { held[m] = held[m] $0 "\n"; next }
		row($1, $2, $3); w += $2; b += $3
	}
	END {
		row("total (module mindmappings)", w, b)
		for (i = 1; i <= nm; i++) {
			print ""
			w = b = 0
			n = split(held[mods[i]], lines, "\n")
			for (j = 1; j <= n; j++) {
				if (lines[j] == "") continue
				split(lines[j], f, " ")
				row(f[1], f[2], f[3]); w += f[2]; b += f[3]
			}
			row("total " mods[i] " (own module)", w, b)
		}
	}
'
