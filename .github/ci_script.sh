#!/usr/bin/env bash
# One script step of the tier-1 workflow:
#
#   .github/ci_script.sh TITLE PATTERN CMD...
#
# runs CMD under a 300 s timeout, prints its output, appends a "### TITLE"
# heading and the output's lines matching the grep PATTERN (or a note
# naming the exit status) to the step summary, and exits with CMD's
# status.  RUNNER_TEMP names a scratch directory and GITHUB_STEP_SUMMARY
# the summary file, as GitHub Actions sets them.
set -u
title=$1 pattern=$2
shift 2
out=$(mktemp "$RUNNER_TEMP/ci_script.XXXXXX")
status=0
timeout 300 "$@" > "$out" || status=$?
cat "$out"
{
  echo "### $title"
  echo '```'
  grep "$pattern" "$out" || echo "no result line (exit $status)"
  echo '```'
} >> "$GITHUB_STEP_SUMMARY"
exit "$status"
