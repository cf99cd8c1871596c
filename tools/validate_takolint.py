#!/usr/bin/env python3
"""Validate a takolint-v3 report (takolint --json output).

Usage: tools/validate_takolint.py takolint.json

Checks the structural schema and the internal invariants a correct lint
run must satisfy: counts match the findings list, exit_code agrees with
the active-finding count and the warn_only flag, and suppressed
findings carry reasons. Exits 0 when valid, 1 with a message on the
first violation. Stdlib only, so CI can run it anywhere.
"""
import json
import sys

RULES = ("D1", "D2", "L1", "L2", "S1", "X1")


class Invalid(Exception):
    pass


def need(cond, msg):
    if not cond:
        raise Invalid(msg)


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_rules(doc):
    rules = doc.get("rules")
    need(isinstance(rules, list), "\"rules\" missing")
    ids = []
    for i, r in enumerate(rules):
        where = f"rules[{i}]"
        need(isinstance(r, dict), f"{where}: must be an object")
        need(r.get("id") in RULES, f"{where}: id must be one of {RULES}")
        need(isinstance(r.get("description"), str) and r["description"],
             f"{where}: missing description")
        ids.append(r["id"])
    need(sorted(ids) == sorted(set(ids)), "rules: duplicate ids")
    need(set(ids) == set(RULES), f"rules must cover exactly {RULES}")


def check_findings(doc):
    findings = doc.get("findings")
    need(isinstance(findings, list), "\"findings\" missing")
    active = {r: 0 for r in RULES}
    for i, f in enumerate(findings):
        where = f"findings[{i}]"
        need(isinstance(f, dict), f"{where}: must be an object")
        need(f.get("rule") in RULES,
             f"{where}: rule must be one of {RULES}")
        need(isinstance(f.get("file"), str) and f["file"],
             f"{where}: missing file")
        need(is_uint(f.get("line")) and f["line"] > 0,
             f"{where}: line must be a positive integer")
        need(isinstance(f.get("message"), str) and f["message"],
             f"{where}: missing message")
        need(isinstance(f.get("suppressed"), bool),
             f"{where}: missing suppressed flag")
        if f["suppressed"]:
            need(isinstance(f.get("reason"), str),
                 f"{where}: suppressed finding without a reason")
        else:
            active[f["rule"]] += 1
    return active


def check_unused(doc):
    unused = doc.get("unused_suppressions")
    need(isinstance(unused, list), "\"unused_suppressions\" missing")
    seen = set()
    for i, u in enumerate(unused):
        where = f"unused_suppressions[{i}]"
        need(isinstance(u, dict), f"{where}: must be an object")
        need(isinstance(u.get("file"), str) and u["file"],
             f"{where}: missing file")
        need(is_uint(u.get("line")) and u["line"] > 0,
             f"{where}: bad line")
        need(isinstance(u.get("rule"), str) and u["rule"],
             f"{where}: missing rule")
        key = (u["file"], u["line"], u["rule"])
        need(key not in seen,
             f"{where}: duplicate unused-suppression entry for "
             f"{u['file']}:{u['line']} ({u['rule']})")
        seen.add(key)


def validate(doc):
    need(doc.get("schema") == "takolint-v3",
         "\"schema\" must be \"takolint-v3\"")
    roots = doc.get("roots")
    need(isinstance(roots, list) and roots and
         all(isinstance(r, str) and r for r in roots),
         "\"roots\" must be a non-empty string array")
    need(is_uint(doc.get("files_scanned")) and doc["files_scanned"] > 0,
         "\"files_scanned\" must be positive")
    need(isinstance(doc.get("warn_only"), bool),
         "\"warn_only\" must be a boolean")
    check_rules(doc)
    active = check_findings(doc)
    check_unused(doc)

    counts = doc.get("counts")
    need(isinstance(counts, dict), "\"counts\" missing")
    need(set(counts) == set(RULES), f"counts must cover exactly {RULES}")
    for rule in RULES:
        need(is_uint(counts[rule]), f"counts.{rule} must be a uint")
        need(counts[rule] == active[rule],
             f"counts.{rule}={counts[rule]} but findings list has "
             f"{active[rule]} active {rule} findings")

    total = sum(active.values())
    need(doc.get("exit_code") in (0, 1), "\"exit_code\" must be 0 or 1")
    expect = 1 if (total and not doc["warn_only"]) else 0
    need(doc["exit_code"] == expect,
         f"exit_code={doc['exit_code']} disagrees with {total} active "
         f"findings (warn_only={doc['warn_only']})")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 1
    try:
        validate(doc)
    except Invalid as e:
        print(f"{path}: invalid takolint-v3: {e}", file=sys.stderr)
        return 1
    total = sum(1 for f in doc["findings"] if not f["suppressed"])
    suppressed = len(doc["findings"]) - total
    mode = " [warn-only]" if doc["warn_only"] else ""
    print(f"{path}: valid takolint-v3 ({doc['files_scanned']} files, "
          f"{total} active findings, {suppressed} suppressed{mode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
