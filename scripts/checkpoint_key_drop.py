#!/usr/bin/env python3
"""Check that two pinned checkpoint fixtures differ only in one dropped
key of the checkpoint's `ctx` object.

Usage:
    git show <commit>:crates/integration-tests/tests/golden/checkpoint_16x16_flush.json > old.json
    python3 scripts/checkpoint_key_drop.py old.json \
        crates/integration-tests/tests/golden/checkpoint_16x16_flush.json [KEY]

KEY defaults to `planning`, the host-time field the checkpoint no longer
carries. The script asserts that OLD holds exactly one `"KEY":<number>,`
member, that deleting that text from OLD gives NEW byte for byte, and
that the parsed documents agree once `ctx[KEY]` is popped from OLD.
"""
import json
import re
import sys

old_path, new_path = sys.argv[1:3]
key = sys.argv[3] if len(sys.argv) > 3 else "planning"
old_text, new_text = (open(p).read() for p in (old_path, new_path))

member = re.compile(r'"%s":-?[0-9.eE+-]+,' % re.escape(key))
found = member.findall(old_text)
assert len(found) == 1, f"expected one {key!r} member in OLD, found {found}"
assert member.sub("", old_text) == new_text, f"NEW is not OLD minus {found[0]!r}"

old, new = json.loads(old_text), json.loads(new_text)
old["ctx"].pop(key)
assert old == new, "parsed fixtures differ beyond the dropped key"
print(f"OK: NEW is OLD with exactly {found[0]!r} deleted")
