"""CLI for profile artifacts: ``python -m repro.obs.profile``.

Two subcommands over ``*-host.json`` / ``*-cost.json`` documents:

* ``validate PATH...`` — schema-check each document (exit 2 on any
  problem); this is what CI's profile-smoke job runs.
* ``top PATH [-n N]`` — print the document's ranked layers (samples for
  host profiles, costed cycles for cost profiles).  Cost rankings are
  deterministic and diffable across runs; host rankings are sampled.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.profile.report import validate_profile


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _cmd_validate(args: argparse.Namespace) -> int:
    bad = 0
    for name in args.paths:
        path = Path(name)
        try:
            doc = _load(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable: {exc}")
            bad += 1
            continue
        problems = validate_profile(doc)
        if problems:
            bad += 1
            for problem in problems:
                print(f"{path}: {problem}")
        else:
            print(f"{path}: ok ({doc['mode']}, {len(doc.get('top', []))} layers)")
    return 2 if bad else 0


def _cmd_top(args: argparse.Namespace) -> int:
    doc = _load(Path(args.path))
    problems = validate_profile(doc)
    if problems:
        for problem in problems:
            print(f"{args.path}: {problem}", file=sys.stderr)
        return 2
    weight = "samples" if doc["mode"] == "host" else "cycles"
    print(f"# {doc['label']} [{doc['mode']}] runs={doc['runs']} weight={weight}")
    for rank, (layer, value) in enumerate(doc["top"][:args.n], start=1):
        print(f"{rank:3d}  {layer:<24s} {value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Validate and rank engine profile artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="schema-check profile JSON files")
    p_validate.add_argument("paths", nargs="+", help="profile .json files")
    p_validate.set_defaults(fn=_cmd_validate)

    p_top = sub.add_parser("top", help="print a profile's ranked layers")
    p_top.add_argument("path", help="one profile .json file")
    p_top.add_argument("-n", type=int, default=10, help="rows to print (default 10)")
    p_top.set_defaults(fn=_cmd_top)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout piped into head/grep that exited early: not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
