"""One benchmark pass, in a fresh interpreter.

    worker.py --workload W --seed N --mode MODE --src DIR --deadline S

MODE is ``setup`` (import gext and build the inputs, then exit), ``plain``
(untraced pass), ``trace`` (pass with per-layer spans) or ``count`` (pass
counting monomial primitives).  The worker prints one JSON object per
line: a header with the number of queries, one line per finished query,
and a closing line with the pass wall time, peak memory and layer
statistics.  Lines are flushed as they are written, so when a pass is
killed at its deadline the parent still sees which queries finished.

``worker.py cli-child MODE SCRIPT`` runs ``gext run --json SCRIPT`` in this
process with tracing or counting installed, and writes the statistics to
standard error as the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import traceback
from time import monotonic, perf_counter

import layers
import workloads

STATS_PREFIX = "BENCH-STATS "


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def import_gext(src: str):
    """Import gext and make sure it is the copy under `src`."""
    import gext
    here = os.path.realpath(gext.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"gext imported from {here}, not from {src}")
    return gext


def instrument(mode: str):
    """Install what MODE needs; returns the recorder or counters, or None.

    Both have ``stats`` and a ``paused`` flag, set while answers are
    checked so that only the queries' own work is measured.
    """
    if mode == "trace":
        probe = layers.Recorder()
        layers.install(probe)
    elif mode == "count":
        probe = layers.Counters()
        layers.install_counters(probe)
    else:
        probe = None
    return probe


def check_bindings(mode: str):
    """Tracing wrappers must be everywhere in a traced pass, nowhere else."""
    wrapped, unwrapped = layers.audit()
    if mode == "trace" and unwrapped:
        raise SystemExit(f"{unwrapped} gext bindings left untraced")
    if mode != "trace" and wrapped:
        raise SystemExit(f"{wrapped} tracing wrappers in an untraced pass")


def run_library(workload: str, seed: int, mode: str, src: str):
    gext = import_gext(src)
    probe = instrument(mode)
    build = {"ext_cotangent": workloads.ext_cotangent_queries,
             "resolve_ci": workloads.resolve_ci_queries}[workload]
    queries = build(gext, seed)
    emit({"queries": len(queries)})
    if mode == "setup":
        return
    start = perf_counter()
    for index, (name, call, check) in enumerate(queries):
        t0 = perf_counter()
        try:
            result = call()
            error = None
        except Exception as err:  # a failing query is counted, not fatal
            result = None
            error = f"{type(err).__name__}: {err}"
        ms = (perf_counter() - t0) * 1000.0
        if error is None:
            if probe is not None:
                probe.paused = True
            try:
                error = check(result)
            except Exception as err:
                error = f"check raised {type(err).__name__}: {err}"
            finally:
                if probe is not None:
                    probe.paused = False
        emit({"query": index, "name": name, "ms": ms, "error": error})
    wall = perf_counter() - start
    check_bindings(mode)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit({"done": True, "wall_s": wall, "rss_mb": rss_mb,
          "stats": dict(probe.stats) if probe is not None else {}})


def run_cli(seed: int, mode: str, src: str, deadline: float):
    """A pass of cli_scripts: one fresh `gext run --json` per script."""
    schema = workloads.load_schema(src)
    order = workloads.cli_script_order(seed)
    emit({"queries": len(order)})
    stats: dict = {}
    end = monotonic() + deadline
    start = perf_counter()
    for index, name in enumerate(order):
        path = os.path.join(workloads.SCRIPT_DIR, name)
        if mode == "plain":
            cmd = [sys.executable, "-m", "gext.cli", "run", "--json", path]
        else:
            cmd = [sys.executable, os.path.abspath(__file__), "cli-child",
                   mode, path]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(end - monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            break   # the rest of the pass counts as unfinished
        ms = (perf_counter() - t0) * 1000.0
        err_lines = proc.stderr.splitlines()
        if err_lines and err_lines[-1].startswith(STATS_PREFIX):
            for key, value in json.loads(
                    err_lines.pop()[len(STATS_PREFIX):]).items():
                stats[key] = stats.get(key, 0) + value
        if proc.returncode != 0:
            tail = " | ".join(err_lines[-3:])
            error = f"{name}: exit code {proc.returncode}: {tail}"
        else:
            error = workloads.check_cli_output(name, proc.stdout, schema)
        emit({"query": index, "name": name, "ms": ms, "error": error})
    wall = perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    emit({"done": True, "wall_s": wall, "rss_mb": rss_mb, "stats": stats})


def cli_child(mode: str, path: str):
    probe = instrument(mode)
    import gext.cli
    check_bindings(mode)
    try:
        gext.cli.main(["run", "--json", path], standalone_mode=False)
    finally:
        sys.stdout.flush()
        sys.stderr.write(STATS_PREFIX + json.dumps(dict(probe.stats)) + "\n")
        sys.stderr.flush()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli-child"]:
        cli_child(argv[1], argv[2])
        return
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "plain", "trace", "count"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--deadline", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        if args.workload == "cli_scripts":
            run_cli(args.seed, args.mode, args.src, args.deadline)
        else:
            run_library(args.workload, args.seed, args.mode, args.src)
    except Exception:
        traceback.print_exc()
        sys.exit(3)


if __name__ == "__main__":
    main()
