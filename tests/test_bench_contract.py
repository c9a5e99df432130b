"""The names and call structure that bench/layers.py relies on.

The benchmark traces gext from outside, by module attribute, so renaming a
traced function or one of the parameters it reads would break
`bench/run.py --trace 1` without failing any other test.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "bench" / "layers.py"
WORKER = ROOT / "bench" / "worker.py"


def _layers():
    """bench/layers.py as a module, leaving no byte-code under bench/."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_traced_functions_resolve():
    for module, attr, _ in _layers().TRACED:
        obj = importlib.import_module("gext." + module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


def test_counted_parameters_exist():
    """`_count_inputs` reads the `gens` and `rels` arguments by name."""
    from gext import groebner
    for fn in (groebner.syzygies, groebner.minimal_generators):
        params = inspect.signature(fn).parameters
        assert "gens" in params and "rels" in params, fn.__name__


CACHE_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
recorder = layers.Recorder()
layers.install(recorder)
from gext import Ring, free_module_of
from gext.sheafext import s_betti
ring = Ring(32003, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])
a, b = free_module_of(ring, (0,)), free_module_of(ring, (0,))
assert a == b and a is not b
s_betti(a)       # miss: resolves a
s_betti(a)       # hit
b.s_resolution() # resolves b outside s_betti
s_betti(b)       # hit
print(int(recorder.stats["sheafext.s_betti.calls"]),
      int(recorder.stats["sheafext.s_betti.hits"]))
"""


def test_s_betti_cache_misses_are_visible_to_the_tracer():
    """The tracer counts an `s_betti` miss by `free_resolution` running as
    its direct child, so the cached S-resolution must be filled there."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CACHE_PROBE, str(LAYERS)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3", "2"]


BASIS_PROBE = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_layers", sys.argv[1])
layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layers)
recorder = layers.Recorder()
layers.install(recorder)
from gext import Ring, groebner_basis, minimal_generators, syzygies
from gext.free import FreeModule, ModuleElement
ring = Ring(32003, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])
fm = FreeModule(ring, (0, 1))
def element(*terms):
    return ModuleElement(fm, {(j, ring.ctx.encode(e)): 1 for j, e in terms})
rels = [element((0, (2, 0, 0)), (1, (1, 0, 0))),
        element((0, (0, 2, 0)), (1, (0, 1, 0))),
        element((0, (1, 1, 0)))]
gens = [element((0, (1, 0, 0))), element((1, (0, 0, 1)))]
basis = groebner_basis(rels, fm)
minimal_generators(gens, rels=basis, ambient=fm)
syzygies(gens, rels=basis, ambient=fm)
print(len(list(basis)), int(recorder.stats["groebner.syzygies.untracked_in"]),
      int(recorder.stats["groebner.minimal_generators.nonzero_in"]))
"""


def test_relation_basis_is_counted_by_the_tracer():
    """`_count_inputs` reads `rels` with `len(list(...))`, so a
    GroebnerBasis passed as rels must iterate over its elements."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", BASIS_PROBE, str(LAYERS)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    size, untracked, nonzero = proc.stdout.split()
    assert int(size) > 0
    assert untracked == size
    assert nonzero == "2"


def test_traced_cli_child_runs_the_script():
    """`bench/worker.py cli-child trace` calls `gext.cli.main` in process
    with `standalone_mode=False` and reports the tracer's stats as the last
    stderr line, which must count every JSON record the CLI renders."""
    script = ROOT / "bench" / "scripts" / "elliptic_yoneda.gx"
    proc = subprocess.run(
        [sys.executable, "-B", str(WORKER), "cli-child", "trace", str(script)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["results"]) == 2
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("BENCH-STATS ")
    stats = json.loads(last[len("BENCH-STATS "):])
    assert stats["cli.record_payload.calls"] == 2
