#!/usr/bin/env bash
# metrics_lint.sh — every htap_* series registered in code must be
# documented in README.md's metric table, and every full htap_* name the
# README puts in backticks must be registered by some non-test source.
#
# The README abbreviates families: rows may list a full name
# (`htap_exec_spills_total`), a shared-prefix tail (`_shed_total` in the
# htap_server row), or a wildcard (`htap_disk_*`). A metric passes if any
# of the three matches. Test files are excluded — test-only series are
# not part of the documented surface.
set -euo pipefail
cd "$(dirname "$0")/.."

readme=README.md
fail=0

# All htap_* string literals in non-test Go sources.
metrics=$(grep -rhoE '"htap_[a-z0-9_]+"' --include='*.go' \
	--exclude='*_test.go' --exclude-dir='.bench-base' cmd internal examples 2>/dev/null |
	tr -d '"' | sort -u)

for m in $metrics; do
	# 1. Full name appears.
	if grep -q "$m" "$readme"; then
		continue
	fi
	# 2. Abbreviated tail: rows like `htap_server_requests_total`,
	# `_shed_total` document siblings by suffix. Accept the metric if any
	# underscore-boundary suffix appears backticked.
	found=0
	rest=${m#htap}
	while [ -n "$rest" ]; do
		if grep -qF "\`$rest\`" "$readme"; then
			found=1
			break
		fi
		next=${rest#_}
		next=${next#"${next%%_*}"}
		[ "$next" = "$rest" ] && break
		rest=$next
	done
	if [ "$found" -eq 1 ]; then
		continue
	fi
	# 3. Wildcard family row: htap_<subsystem>_*.
	prefix=$(printf '%s' "$m" | grep -oE '^htap_[a-z0-9]+')
	if grep -qF "\`${prefix}_*\`" "$readme"; then
		continue
	fi
	echo "UNDOCUMENTED: $m (no row in $readme)"
	fail=1
done

# The other direction: a documented full name (wildcard rows excluded)
# must still be registered, so a deleted series cannot leave its row behind.
for m in $(grep -oE '`htap_[a-z0-9_]+`' "$readme" | tr -d '`' | sort -u); do
	if ! grep -qxF "$m" <<<"$metrics"; then
		echo "STALE: $m (documented in $readme, registered by no non-test source)"
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "metrics lint failed: document the series above in, or remove stale rows from, the README metric table" >&2
	exit 1
fi
echo "metrics lint: registered htap_* series and README metric table agree"
