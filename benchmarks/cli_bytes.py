#!/usr/bin/env python3
"""Hash every byte a fixed battery of command lines prints, to compare two trees.

    python3 benchmarks/cli_bytes.py [--src DIR]

DIR is the directory that holds the ``torcob`` package (default: ``src``
beside this script's directory); run the script once with each tree's DIR
and compare the two lines.  The battery runs in this one process through
``torcob.cli.main``, each call with fresh streams, an empty stdin and
``COBORDISM_DEFAULT_DEG`` unset:

- the commands of the end-to-end benchmark's ``cli`` workload for seeds
  1-30 (``commands`` of ``e2ebench/wl_cli.py``);
- every argv of the golden corpus ``tests/golden/cases.json``;
- the help of every parser level, usage errors and argv that parse at the
  edges of argparse (``--``, option-like values, repeats, abbreviations,
  ``=`` and words left over).

Prints one JSON line: the number of commands and the SHA-256 of the
(argv, exit status, stdout, stderr) of every command in turn.  The hash
covers the help text, so a change to ``cli.DESCRIPTION``, which
``torcob --help`` prints, changes it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 31)
HELP = [["--help"], ["-h"], ["selftest", "--help"], ["fgl", "--help"], ["gkm", "--help"],
        ["flag", "--help"]]
USAGE = [
    [], ["bogus"], ["fgl"], ["fgl", "bogus"], ["gkm", "bogus", "--deg", "3"],
    ["fgl", "print", "--deg", "3", "extra"], ["fgl", "print", "--bogus"],
    ["flag", "nf", "x1"], ["flag", "nf", "x1", "--rank", "x"],
    ["flag", "kernel", "x1", "--rank"], ["gkm", "gen", "p2"], ["selftest", "--only"],
    ["fgl", "print", "--deg", "3", "--", "x"], ["--", "fgl", "print"],
    ["flag", "nf", "-x1", "--rank", "2"], ["flag", "nf", "--rank", "2", "--", "-x1"],
    ["fgl", "print", "--deg", "3", "--deg", "2"], ["fgl", "print", "--deg"],
    ["fgl", "print", "--he"], ["fgl", "print", "--co", "2", "--deg", "3"],
    ["fgl", "print", "--deg=3", "extra", "words"], ["gkm", "gen", "p1", "--char", "-1"],
    ["flag", "rank", "--rank", "3", "--deg", "3"], ["fgl", "print", "--bogus", "-h"],
]


def battery(cli):
    """Every argv of the battery, in order; the help of each subcommand
    ``cli``'s parser names."""
    sys.path.insert(0, os.path.join(ROOT, "e2ebench"))
    from wl_cli import commands

    out = [list(argv) for seed in SEEDS for argv, _ in commands(seed)]
    with open(os.path.join(ROOT, "tests", "golden", "cases.json"), encoding="utf-8") as fh:
        out += [case["argv"] for case in json.load(fh)]
    out += HELP + [[*pair, "--help"] for pair in cli.build_parser().commands]
    return out + USAGE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Hash the bytes of a battery of torcob commands.")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the torcob package (default: src)")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    os.environ.pop("COBORDISM_DEFAULT_DEG", None)
    from torcob import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"torcob was imported from {cli.__file__}, not from {src}")
    digest = hashlib.sha256()
    commands = battery(cli)
    for words in commands:
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(words), stdout=out, stderr=err, stdin=io.StringIO())
        record = [words, code, out.getvalue(), err.getvalue()]
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    print(json.dumps({"commands": len(commands), "sha256": digest.hexdigest()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
