#!/usr/bin/env python3
"""Compare drillload's result (the last line on stdin) with a committed expectation.

usage: bash bench/run.sh ... | python3 tools/drillload_check.py docs/drillload-expect.json

The expectation lists the box-independent part of a count-based run: the
correctness verdict, the operation counts, and the two counted end-to-end
metrics; timed metrics and RSS are not listed because they do not repeat.
Every listed value must be exactly equal, except response_bytes_per_op,
which may differ by BYTES_SLACK: a stream's `done` event carries
`elapsed_ms`, and 98 ms is one byte shorter than 110 ms. A digit of wobble
in each of the session's streams moves the mean by 0.18 bytes over its 17
operations; any real change to a response field moves it by more. This is
interim, until a benchmark PR leaves timing digits out of the counted bytes.
"""
import json
import sys

with open(sys.argv[1]) as f:
    expect = json.load(f)
result = json.loads(sys.stdin.read().splitlines()[-1])
got = {k: result.get(k) for k in ("correct", "attempted", "failed")}
got.update({k: v["value"] for k, v in result["metrics"].items()})

BYTES_SLACK = 0.25  # bytes per operation


def differs(k, want):
    if k not in got:
        return True
    if k == "response_bytes_per_op":
        return abs(got[k] - want) > BYTES_SLACK
    return got[k] != want


bad = [k for k, want in expect.items() if differs(k, want)]
for k in bad:
    print(f"drillload-check: {k} = {got.get(k)!r}, expected {expect[k]!r}", file=sys.stderr)
if bad:
    print(f"drillload-check: search work or wire bytes changed; if intended, update {sys.argv[1]} in the same change", file=sys.stderr)
    sys.exit(1)
print("drillload-check: ok " + json.dumps({k: got[k] for k in expect}))
