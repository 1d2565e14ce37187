#!/usr/bin/env python3
"""Check that two pipeline golden snapshots differ only in the dropped
wall-clock columns.

Usage:
    git show <commit>:crates/integration-tests/tests/golden/pipeline_e10_e11_e12.json > old.json
    python3 scripts/golden_column_drop.py old.json \
        crates/integration-tests/tests/golden/pipeline_e10_e11_e12.json

Drops the `plan [ms]` and `moves/s` columns, and their cells, from the
E10 and E11 tables of OLD, then asserts that the result equals NEW as
parsed JSON and that the E12 entry is byte-identical.
"""
import json
import sys

DROPPED = {"plan [ms]", "moves/s"}


def drop_columns(table):
    keep = [i for i, c in enumerate(table["columns"]) if c not in DROPPED]
    table["columns"] = [table["columns"][i] for i in keep]
    table["rows"] = [[row[i] for i in keep] for row in table["rows"]]


def scenario(doc, sid):
    (entry,) = [s for s in doc["scenarios"] if s["id"] == sid]
    return entry


old_path, new_path = sys.argv[1:3]
old, new = (json.load(open(p)) for p in (old_path, new_path))
for sid in ("E10", "E11"):
    drop_columns(scenario(old, sid)["table"])
assert old == new, "snapshots differ beyond the dropped wall-clock columns"
e12 = [json.dumps(scenario(d, "E12"), indent=2) for d in (old, new)]
assert e12[0] == e12[1], "E12 entry changed"
print("OK: equal once `plan [ms]`/`moves/s` are dropped from E10 and E11; E12 identical")
