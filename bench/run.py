"""gext benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; gext is imported from its ``src/``.
Workloads (each a closed loop with one client: a query starts when the
previous one returns; one thread):

  ext_cotangent  cotangent_module and global_ext_sum(1, 0, ...) on the
                 Omega-dual and Omega sides of five smooth varieties
  resolve_ci     groebner_basis, normal_form, free_resolution, betti_stats
                 and hilbert_function on seeded random ideals
  cli_scripts    ``gext run --json`` on the scripts in bench/scripts, one
                 fresh process per script

BENCHMARK.json lists ext_cotangent and cli_scripts.  resolve_ci runs the
same way but is left out of it: on a 2-vCPU virtual machine whose clock
speed drifted by up to 1.7x over minutes, the spread of its wall_s and
op_p50_ms over ten seeds exceeded the largest regression bound (0.25),
and two workloads leave room for 55-second runs.

A pass runs the whole query list once in a fresh interpreter, so gext's
process-global caches start cold.  ``--trace 0`` measures set-up several
times, then runs passes until S seconds have gone (at least two, three
for ext_cotangent), and prints the end-to-end metrics.  ``--trace 1`` runs one untraced pass, one
pass with spans around each layer's public functions and one pass that
counts monomial primitives, and prints the per-layer metrics.  Every
answer is checked; a query that raises, answers wrongly or is cut off by
the pass deadline counts as failed.  The last line of output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from time import monotonic

sys.dont_write_bytecode = True   # leave no byte-code next to the sources

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_SCRIPT = os.path.join(BENCH_DIR, "scripts", "setup_ring.gx")

WORKLOADS = ("ext_cotangent", "resolve_ci", "cli_scripts")
SETUP_SAMPLES = 7      # at least; one more per pass beyond MIN_PASSES
# ext_cotangent passes take about 18 s, so its runs last longer than S to
# take a median of three
MIN_PASSES = {"ext_cotangent": 3, "resolve_ci": 2, "cli_scripts": 2}
# seconds before a pass is killed; a traced pass gets TRACE_SLACK times as
# long, a counting pass COUNT_SLACK times
PASS_DEADLINE = {"ext_cotangent": 120.0, "resolve_ci": 60.0,
                 "cli_scripts": 60.0}
TRACE_SLACK, COUNT_SLACK = 1.5, 3.0
RUN_LIMIT = 170.0      # the whole run, set-up included, ends before this
TAIL_BEYOND = 10       # samples left above the reported tail percentile
TAIL_MIN_QUERIES = 20  # fewer queries in a pass: report its maximum


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(ROOT, ".bench_build", "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(cmd, timeout):
    """Run cmd in its own process group; kill the group at the timeout.

    Returns (stdout, stderr, returncode or None if killed, seconds).
    """
    t0 = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        out, err = proc.communicate()
        code = None
    finally:
        if proc.poll() is None:
            _kill_group(proc)
            proc.wait()
    return out, err, code, monotonic() - t0


def _kill_group(proc):
    """Kill proc's process group and wait until every member has gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    end = monotonic() + 5.0
    while monotonic() < end:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Pass:
    """Parsed output of one worker pass."""

    def __init__(self, out, err, code, seconds):
        self.queries = None
        self.latencies_ms = []
        self.errors = []
        self.wall_s = seconds
        self.rss_mb = None
        self.stats = {}
        finished = False
        for line in out.splitlines():
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if "queries" in rec:
                self.queries = rec["queries"]
            elif "query" in rec:
                if rec["error"] is None:
                    self.latencies_ms.append(rec["ms"])
                else:
                    self.errors.append(f"{rec['name']}: {rec['error']}")
            elif rec.get("done"):
                finished = True
                self.wall_s = rec["wall_s"]
                self.rss_mb = rec["rss_mb"]
                self.stats = rec["stats"]
        done = len(self.latencies_ms) + len(self.errors)
        if self.queries is None:
            self.queries = max(done, 1)
        if done < self.queries:
            why = "killed at the pass deadline" if code is None else \
                f"worker exited with code {code}"
            self.errors.append(f"{self.queries - done} queries unfinished: "
                               f"{why}: {err.strip()[-300:]}")
        elif code != 0 or not finished:
            # answers of a pass that did not end cleanly are not trusted
            self.errors.append(f"worker exited with code {code}: "
                               f"{err.strip()[-300:]}")
            self.latencies_ms = []
        self.failed = self.queries - len(self.latencies_ms)

    def tail_ms(self):
        ms = sorted(self.latencies_ms)
        if not ms:
            return 0.0
        if self.queries < TAIL_MIN_QUERIES:
            return ms[-1]
        return ms[max(len(ms) - TAIL_BEYOND - 1, 0)]


def run_pass(workload, seed, mode, deadline):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--mode", mode, "--src", SRC, "--deadline",
           str(deadline)]
    return Pass(*run_child(cmd, deadline))


def measure_setup(workload, seed):
    """Seconds for a fresh interpreter to import gext and build the
    inputs; for cli_scripts, a `gext run` of a script that only declares
    a ring.  Returns (seconds, error or None)."""
    if workload == "cli_scripts":
        cmd = [sys.executable, "-m", "gext.cli", "run", "--json", SETUP_SCRIPT]
    else:
        cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
               str(seed), "--mode", "setup", "--src", SRC, "--deadline", "60"]
    out, err, code, seconds = run_child(cmd, 60.0)
    if code != 0:
        return seconds, f"set-up exited with code {code}: {err.strip()[-300:]}"
    if workload == "cli_scripts":
        try:
            ok = json.loads(out)["results"] == []
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            return seconds, "set-up script printed an unexpected document"
    return seconds, None


def _median(values):
    return statistics.median(values) if values else 0.0


def plain_run(workload, seed, seconds, t_start):
    setups, errors = [], []

    def sample_setup():
        s, err = measure_setup(workload, seed)
        setups.append(s)
        if err:
            errors.append(err)

    measure_setup(workload, seed)   # warm the byte-code cache
    # set-up samples are spread over the run, one before each pass, so
    # that their median sees the same machine as the passes
    for _ in range(SETUP_SAMPLES - MIN_PASSES[workload] - 1):
        sample_setup()
    passes = []
    start = monotonic()
    while True:
        elapsed = monotonic() - start
        if len(passes) >= MIN_PASSES[workload] and \
                elapsed + 0.5 * _median([p.wall_s for p in passes]) >= seconds:
            break
        deadline = min(PASS_DEADLINE[workload],
                       RUN_LIMIT - (monotonic() - t_start))
        if passes and deadline < 1.0:
            break
        sample_setup()
        passes.append(run_pass(workload, seed, "plain", deadline))
    sample_setup()
    attempted = sum(p.queries for p in passes) + len(errors)
    failed = sum(p.failed for p in passes) + len(errors)
    errors += [e for p in passes for e in p.errors]
    latencies = [ms for p in passes for ms in p.latencies_ms]
    metrics = {
        "wall_s": _median([p.wall_s for p in passes]),
        "op_p50_ms": _median(latencies),
        "op_tail_ms": _median([p.tail_ms() for p in passes]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p.rss_mb for p in passes
                                if p.rss_mb is not None]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    q = passes[0].queries
    tail = "maximum" if q < TAIL_MIN_QUERIES else \
        f"{100.0 * (q - TAIL_BEYOND) / q:.1f}th percentile"
    notes = [f"{len(passes)} passes of {q} queries; {len(setups)} set-ups",
             f"op_tail_ms: {tail} of each pass, median over passes",
             "pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
             "set-up s: " + " ".join(f"{s:.3f}" for s in setups)]
    return metrics, attempted, failed, errors, notes


def traced_run(workload, seed, t_start):
    import layers
    passes = {}
    for mode, slack in (("plain", 1.0), ("trace", TRACE_SLACK),
                        ("count", COUNT_SLACK)):
        deadline = min(PASS_DEADLINE[workload] * slack,
                       RUN_LIMIT - (monotonic() - t_start))
        passes[mode] = run_pass(workload, seed, mode, max(deadline, 0.1))
    overhead = passes["trace"].wall_s / passes["plain"].wall_s - 1.0
    metrics = layers.layer_metrics(passes["trace"].stats,
                                   passes["count"].stats, overhead)
    attempted = sum(p.queries for p in passes.values())
    failed = sum(p.failed for p in passes.values())
    errors = [f"{mode} pass: {e}" for mode, p in passes.items()
              for e in p.errors]
    notes = [f"{mode} pass: {p.wall_s:.3f} s" for mode, p in passes.items()]
    return metrics, attempted, failed, errors, notes


def main(argv=None):
    t_start = monotonic()
    # a terminated run still kills and waits for its children (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gext", "__init__.py")):
        print(f"error: no gext sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    if args.trace:
        metrics, attempted, failed, errors, notes = traced_run(
            args.workload, args.seed, t_start)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed, errors, notes = plain_run(
            args.workload, args.seed, args.seconds, t_start)
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if list(units) != list(metrics):
        print("error: metrics do not match BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}")
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    for err in errors[:20]:
        print("  FAILED " + err)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
