"""Command-line entry point: run a script file and print result records.

``gext run FILE`` prints the text rendering of every compute statement;
``--json`` emits a single JSON document instead.  Exit codes: 0 on
success, 1 on an input error (a parse error, or a ``--prime`` that is not
a prime in [2, 2^31)) or when stdout's reader closes it early, 2 on a
computation error or a misused command line (usage on stderr).  The
parser is the standard library's ``argparse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .gmod import GradedModule, hilbert_function
from .script import (DEFAULT_PRIME, ComputationError, ResultRecord,
                     parse_script, run_script)
from .ring import ParseError, is_modulus

HILBERT_WINDOW = 8  # degrees reported in JSON module payloads


def render_module_text(module: GradedModule) -> str:
    if module.is_zero():
        return "0"
    degs = module.generator_degrees
    pres = module.presentation
    if pres.source.rank == 0:
        return "free {" + ", ".join(str(d) for d in degs) + "}"
    lines = []
    for i, d in enumerate(degs):
        row = " ".join(str(pres.entry(i, j)) for j in range(pres.source.rank))
        lines.append(f"cokernel {{{d}}} | {row} |")
    return "\n".join(lines)


def module_payload(module: GradedModule) -> dict:
    degs = list(module.generator_degrees)
    pres = module.presentation
    relations = [[str(pres.entry(i, j)) for j in range(pres.source.rank)]
                 for i in range(len(degs))]
    hilbert = {}
    if degs:
        lo = min(degs)
        for d in range(lo, lo + HILBERT_WINDOW):
            hilbert[str(d)] = hilbert_function(module, d)
    return {"generators": degs, "relations": relations, "hilbert": hilbert}


def render_record_text(rec: ResultRecord) -> str:
    head = f"-- {rec.provenance}"
    if rec.kind == "module":
        return head + "\n" + render_module_text(rec.payload)
    if rec.kind == "dimension":
        d = rec.payload
        return head + "\n" + (f"kk^{d}" if d else "0")
    if rec.kind == "scalar":
        return head + "\n" + str(rec.payload)
    if rec.kind == "betti":
        return head + "\n" + rec.payload.grid()
    if rec.kind == "extension":
        result = rec.payload
        body = render_module_text(result.module)
        status = "verified" if result.verified == (True, True, True) else \
            f"verification {result.verified}"
        return f"{head}\n{body}\n{status}"
    raise ValueError(f"unknown record kind {rec.kind!r}")


def record_payload(rec: ResultRecord) -> dict:
    out = {"kind": rec.kind, "command": rec.provenance}
    if rec.kind == "module":
        out["module"] = module_payload(rec.payload)
    elif rec.kind in ("dimension", "scalar"):
        out["value"] = rec.payload
    elif rec.kind == "betti":
        table = rec.payload
        out["betti"] = {f"{i},{a}": b for (i, a), b in
                        sorted(table.entries.items())}
        out["pd"] = table.pd if table.complete and table.entries else None
    elif rec.kind == "extension":
        result = rec.payload
        out["module"] = module_payload(result.module)
        out["verified"] = list(result.verified)
        out["truncated"] = module_payload(result.truncated)
    return out


def run(script_file: str, as_json: bool, prime: int) -> None:
    """Execute SCRIPT_FILE and print its compute results."""
    if not is_modulus(prime):
        print(f"input error: --prime {prime} is not a prime in [2, 2^31)",
              file=sys.stderr)
        sys.exit(1)
    try:
        with open(script_file, encoding="utf-8") as fh:
            script = parse_script(fh.read())
    except (ParseError, UnicodeDecodeError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        sys.exit(1)
    try:
        records = run_script(script, default_prime=prime)
    except ComputationError as err:
        print(f"computation error: {err}", file=sys.stderr)
        sys.exit(2)
    if as_json:
        doc = {"prime": prime,
               "results": [record_payload(r) for r in records]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n\n".join(render_record_text(r) for r in records))


def _script_file(path: str) -> str:
    """A readable file that is not a directory; else a usage error."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gext", allow_abbrev=False,
        description="Graded Ext and sheaf cohomology over projective "
                    "schemes.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    cmd = commands.add_parser(
        "run", allow_abbrev=False,
        help="execute SCRIPT_FILE and print its compute results",
        description="Execute SCRIPT_FILE and print its compute results.")
    cmd.add_argument("script_file", metavar="SCRIPT_FILE", type=_script_file)
    cmd.add_argument("--json", dest="as_json", action="store_true",
                     help="emit a JSON document")
    cmd.add_argument("--prime", type=int, default=DEFAULT_PRIME, metavar="P",
                     help="coefficient prime for rings declared with 'kk' "
                          "(default: %(default)s)")
    return parser


def main(argv=None, standalone_mode=True):
    """``gext run SCRIPT_FILE [--json] [--prime P]``; argv defaults to
    sys.argv[1:].  Misuse exits 2 with a usage line on stderr."""
    # bench/worker.py's traced child passes standalone_mode=False: no effect.
    args = _parser().parse_args(argv)
    try:
        run(args.script_file, args.as_json, args.prime)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone (`gext run S | head`): exit 1 with no
        # traceback, and point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
