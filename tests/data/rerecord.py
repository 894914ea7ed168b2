"""Re-record named cases of the CLI goldens in cli_golden.json.

    PYTHONPATH=src python tests/data/rerecord.py [--add] "<cmd>" ["<cmd>" ...]

Each <cmd> is the "cmd" field of an existing case, "{data}" included; with
--add, a <cmd> without a case is recorded as a new case at the end, its
stdout stored.  Only those cases are run; their stdout, stdout_bytes,
stdout_sha256 and exit are written and every other case stays
byte-identical.  Every value that changed is printed with its old and new
value and, for numbers, the relative difference, so a re-record can be
reviewed number by number instead of as a new hash.  A case too large to
store its stdout keeps stdout_line_sha256 instead, the first 16 hex digits
of the sha256 of each line (newline included): the lines that changed are
printed with their new text.
"""

import hashlib
import io
import json
import re
import shlex
import sys
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path

from framelab.cli import main

DATA = Path(__file__).resolve().parent
GOLDEN = DATA / "cli_golden.json"


def run(cmd):
    """(exit code, stdout) of one golden command, as tests/test_cli.py replays it."""
    argv = [arg.replace("{data}", str(DATA / "cli")) for arg in shlex.split(cmd)]
    out = io.StringIO()
    with redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def line_digests(text):
    """stdout_line_sha256 of a golden's stdout; tests/test_cli.py checks it the same way."""
    return [hashlib.sha256(line.encode()).hexdigest()[:16] for line in text.splitlines(keepends=True)]


def report_lines(old_digests, new_text):
    lines = new_text.splitlines(keepends=True)
    for i, (before, after) in enumerate(zip_longest(old_digests, line_digests(new_text))):
        if after is None:
            print(f"  removed line {i}")
        elif before != after:
            print(f"  {'added' if before is None else 'changed'} line {i}: {lines[i]!r}")


def leaves(text):
    """{path: value} of a JSON document, else of the comma/space fields per line."""
    try:
        doc = json.loads(text)
    except ValueError:
        return {f"line {i} field {j}": field
                for i, line in enumerate(text.splitlines())
                for j, field in enumerate(re.split(r"[,\s]+", line))}
    flat = {}

    def walk(node, path):
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, child in items:
                walk(child, f"{path}.{key}" if path else str(key))
        else:
            flat[path] = node
    walk(doc, "")
    return flat


def as_number(value):
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def report(old_text, new_text):
    old, new = leaves(old_text), leaves(new_text)
    for path in sorted(old.keys() | new.keys()):
        before, after = old.get(path), new.get(path)
        if path not in new:
            print(f"  removed {path}: {before!r}")
        elif path not in old:
            print(f"  added   {path}: {after!r}")
        elif before != after:
            x, y = as_number(before), as_number(after)
            if x is None or y is None:
                print(f"  changed {path}: {before!r} -> {after!r}")
            else:
                rel = abs(y - x) / abs(x) if x else float("inf")
                print(f"  changed {path}: {before!r} -> {after!r} (relative difference {rel:.3e})")


def rerecord(cmds, add=False):
    cases = json.loads(GOLDEN.read_text())
    by_cmd = {case["cmd"]: case for case in cases}
    missing = [cmd for cmd in cmds if cmd not in by_cmd]
    if missing and not add:
        sys.exit(f"no golden case for {missing}")
    for cmd in missing:
        by_cmd[cmd] = {"cmd": cmd, "exit": None, "stdout": "", "stdout_bytes": 0}
        cases.append(by_cmd[cmd])
    for cmd in cmds:
        case = by_cmd[cmd]
        code, out = run(cmd)
        print(f"{cmd}: exit {case['exit']} -> {code}, {case['stdout_bytes']} -> {len(out.encode())} bytes")
        if "stdout" in case:
            report(case["stdout"], out)
            case["stdout"] = out
        else:
            report_lines(case["stdout_line_sha256"], out)
            case["stdout_line_sha256"] = line_digests(out)
        case["exit"] = code
        case["stdout_bytes"] = len(out.encode())
        case["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    GOLDEN.write_text(json.dumps(cases, indent=1))


if __name__ == "__main__":
    args = sys.argv[1:]
    rerecord([arg for arg in args if arg != "--add"], add="--add" in args)
