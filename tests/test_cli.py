"""Script language and command-line front end."""

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import gext.script
from gext.cli import main, module_payload
from gext.script import (ComputationError, ScriptError, parse_script,
                         run_script)
from gext import (Ring, betti_stats, direct_sum, free_module_of,
                  free_resolution, global_ext, global_ext_sum,
                  hilbert_function, krull_dim, ring_module, sheaf_cohomology,
                  sheaf_cohomology_sum, truncate_module, twist,
                  yoneda_extension)
from gext.free import GradedMatrix
from gext.gmod import GradedModule

QUARTIC_SCRIPT = """\
# rational quartic curve in P^3
ring S = ZZ/32003[w,x,y,z];
module N = coker(S, [[x*y - w*z, y^3 - x*z^2, w*y^2 - x^2*z, x^3 - w^2*y]],
                 degrees=[0]);
module S1 = free(S, degrees=[0]);
compute globalExtSum(1, 0, S1, N);
compute hilbert(N, 2);
compute dim(N);
"""

ELLIPTIC_SCRIPT = """\
ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);
compute globalExt(1, R, R);
"""


def schema():
    text = resources.files("gext").joinpath("result_schema.json").read_text()
    return json.loads(text)


@dataclass
class CliResult:
    exit_code: int
    output: str   # stdout
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run `main(argv)` in process: its stdout, stderr and exit code."""
    def invoke(args):
        capsys.readouterr()
        try:
            main(args)
            code = 0
        except SystemExit as exit_:
            code = 0 if exit_.code is None else exit_.code
        out, err = capsys.readouterr()
        return CliResult(code, out, err)
    return invoke


def test_parse_script_statement_count():
    s = parse_script(QUARTIC_SCRIPT)
    assert len(s.statements) == 6
    kinds = [k for k, _, _ in s.statements]
    assert kinds == ["ring", "module", "module", "compute", "compute",
                     "compute"]


def test_parse_empty_script():
    assert parse_script("").statements == []


def test_parse_error_has_position():
    with pytest.raises(ScriptError) as exc:
        parse_script("ring R = ZZ/32003[x,y;\n")
    assert exc.value.line == 1
    assert exc.value.col > 0


@pytest.mark.parametrize("text, message", [
    ("ring R = ZZ/7[x,y];\ncompute hilbert(R, 2)",
     "line 2, column 22: expected ';', found 'end of input'"),
    ("ring R = ZZ/7[x,y];\nmodule M = coker(R, [[x + y",
     "line 2, column 28: unterminated polynomial"),
    ("ring R = ZZ/7[x,y];\ncompute dim(R)\n",
     "line 3, column 1: expected ';', found 'end of input'"),
])
def test_end_of_input_error_has_position(text, message):
    """An error at the end of input points just past the last character."""
    with pytest.raises(ScriptError) as exc:
        parse_script(text)
    assert str(exc.value) == message


def test_nonprime_modulus_is_parse_error():
    with pytest.raises(ScriptError):
        parse_script("ring R = ZZ/4[x];")


@pytest.mark.parametrize("modulus", ["1000000000000000003", "2147483659",
                                     "1", "-7"])
def test_modulus_out_of_range_is_parse_error(tmp_path, modulus):
    """A modulus outside [2, 2^31) is a parse error at the modulus, found
    without trial division: a huge prime must not hang the parser."""
    f = tmp_path / "modulus.gx"
    f.write_text(f"ring R = ZZ/{modulus}[x,y];\ncompute dim(R);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "gext.cli", "run", str(f)],
                          capture_output=True, text=True, timeout=20,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stderr == (f"parse error: line 1, column 13: {modulus} is "
                           "not a prime in [2, 2^31)\n")


@pytest.mark.parametrize("text", [
    "ring R = ZZ/7[];",
    "ring R = ZZ/7[x];\nmodule M = coker(R, [], degrees=[]);",
])
def test_empty_list_is_parse_error(text):
    with pytest.raises(ScriptError):
        parse_script(text)


def test_unbound_identifier():
    s = parse_script("compute dim(Q);")
    with pytest.raises(ComputationError):
        run_script(s)


def test_run_script_records():
    records = run_script(parse_script(QUARTIC_SCRIPT))
    assert [r.kind for r in records] == ["module", "scalar", "scalar"]
    assert records[0].payload.is_zero()
    assert records[1].payload == 9
    assert records[2].payload == 2


def test_elliptic_dimension_record():
    records = run_script(parse_script(ELLIPTIC_SCRIPT))
    assert records[0].kind == "dimension"
    assert records[0].payload == 1


def test_cli_text_output(tmp_path, run_cli):
    f = tmp_path / "s.gx"
    f.write_text(QUARTIC_SCRIPT)
    result = run_cli(["run", str(f)])
    assert result.exit_code == 0
    assert "globalExtSum(1, 0, S1, N)" in result.output
    assert "kk^" not in result.output.split("--")[1]  # module record, not dim
    assert "0" in result.output

    ell = tmp_path / "e.gx"
    ell.write_text(ELLIPTIC_SCRIPT)
    result = run_cli(["run", str(ell)])
    assert result.exit_code == 0
    assert "kk^1" in result.output


def test_cli_determinism(tmp_path, run_cli):
    f = tmp_path / "s.gx"
    f.write_text(QUARTIC_SCRIPT)
    out1 = run_cli(["run", str(f)]).output
    out2 = run_cli(["run", str(f)]).output
    assert out1 == out2
    j1 = run_cli(["run", str(f), "--json"]).output
    j2 = run_cli(["run", str(f), "--json"]).output
    assert j1 == j2


def test_cli_output_does_not_depend_on_hash_seed(tmp_path):
    """`gext run --json` prints the same bytes in two processes with
    different string hash seeds: no answer rests on the iteration order
    of a hashed container."""
    f = tmp_path / "s.gx"
    f.write_text("ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);\n"
                 "module Q = coker(R, [[x, y]], degrees=[0]);\n"
                 "compute globalExt(1, R, R);\n"
                 "compute yonedaExt(R, R, [0, 0, 0, 0, 0, 0, z, 0, 0]);\n"
                 "compute globalExt(1, Q, R);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "gext.cli", "run", "--json", str(f)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["results"]) == 3


def test_cli_json_schema(tmp_path, run_cli):
    f = tmp_path / "s.gx"
    f.write_text(QUARTIC_SCRIPT + "compute betti(N);\n")
    result = run_cli(["run", str(f), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, schema())
    assert doc["prime"] == 32003


@pytest.mark.parametrize("ring, call, pd", [
    ("ZZ/32003[x,y,z] / (x^3 + y^3 - z^3)", "betti(K, 3)", None),
    ("ZZ/32003[x,y,z] / (x^3 + y^3 - z^3)", "betti(K, 8)", None),
    ("ZZ/32003[x,y,z]", "betti(K, 2)", None),
    ("ZZ/32003[x,y,z]", "betti(K)", 3),
])
def test_json_pd_only_for_complete_resolutions(tmp_path, ring, call, pd,
                                               run_cli):
    """The residue field K = R/(x, y, z): infinite resolution over the
    cubic, projective dimension 3 over S; a capped resolution gives no pd."""
    f = tmp_path / "s.gx"
    f.write_text(f"ring R = {ring};\n"
                 "module K = coker(R, [[x, y, z]], degrees=[0]);\n"
                 f"compute {call};\n")
    result = run_cli(["run", str(f), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, schema())
    assert doc["results"][0]["pd"] == pd


def test_json_hilbert_agrees_with_library(tmp_path, run_cli):
    f = tmp_path / "s.gx"
    f.write_text("""\
ring S = ZZ/32003[x,y,z];
module M = coker(S, [[x^2, y^2]], degrees=[0]);
compute sheafCohomologySum(0, 0, M);
""")
    result = run_cli(["run", str(f), "--json"])
    doc = json.loads(result.output)
    payload = doc["results"][0]["module"]
    records = run_script(parse_script(f.read_text()))
    module = records[0].payload
    for d, dim in payload["hilbert"].items():
        assert hilbert_function(module, int(d)) == dim


def test_json_module_roundtrip(tmp_path, run_cli):
    """A module JSON payload re-fed as a coker script reproduces itself."""
    f = tmp_path / "s.gx"
    f.write_text("""\
ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);
compute sheafCohomologySum(0, 0, R);
""")
    doc = json.loads(run_cli(["run", str(f), "--json"]).output)
    payload = doc["results"][0]["module"]
    rows = payload["relations"]
    degs = payload["generators"]
    if rows and rows[0]:
        body = "[" + ", ".join(
            "[" + ", ".join(r) + "]" for r in rows) + "]"
        stmt = (f"module M = coker(R, {body}, "
                f"degrees=[{', '.join(map(str, degs))}]);")
    else:
        stmt = f"module M = free(R, degrees=[{', '.join(map(str, degs))}]);"
    f2 = tmp_path / "s2.gx"
    f2.write_text(
        "ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);\n" + stmt +
        "\ncompute sheafCohomologySum(0, 0, M);\n")
    doc2 = json.loads(run_cli(["run", str(f2), "--json"]).output)
    assert doc2["results"][0]["module"] == payload


def test_exit_code_parse_error(tmp_path, run_cli):
    f = tmp_path / "bad.gx"
    f.write_text("ring R = ZZ/32003[x,y;\n")
    result = run_cli(["run", str(f)])
    assert result.exit_code == 1


@pytest.mark.parametrize("statement", [
    "compute hilbert(R);", "compute dim();", "compute dim(R, 1);",
    "compute betti(R, 1, 2);", "compute globalExtSum(1, 0, R);",
    "compute yonedaExt(R, R);", "compute hilbert(3, R);",
    "compute hilbert(R, R);", "compute yonedaExt(R, R, 3);",
    "compute globalExt(1, [x], R);",
])
def test_wrong_arity_is_parse_error(tmp_path, statement):
    """`gext run` reports a wrong argument count or kind as a one-line parse
    error with the statement position, exit code 1 and no traceback."""
    f = tmp_path / "arity.gx"
    f.write_text("ring R = ZZ/32003[x,y,z];\n" + statement + "\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "gext.cli", "run", str(f)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("parse error: line 2, column 9:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_malformed_polynomial_is_parse_error(tmp_path):
    """A polynomial is parsed against its ring's variables before any
    statement runs: exit code 1, the error at the polynomial, no record."""
    f = tmp_path / "poly.gx"
    text = ("ring R = ZZ/32003[x,y]; compute hilbert(R, 1); "
            "module M = coker(R, [[x + q]], degrees=[0]);\n")
    f.write_text(text)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "gext.cli", "run", str(f)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    column = text.index("x + q") + 1
    assert proc.stderr.strip() == (f"parse error: line 1, column {column}: "
                                   "unknown variable in 'q'")


def test_script_not_utf8_is_parse_error(tmp_path):
    """A script that is not valid UTF-8 is a one-line parse error with
    exit code 1, not a traceback."""
    f = tmp_path / "latin1.gx"
    f.write_bytes(b"# caf\xe9\nring R = ZZ/32003[x,y];\n"
                  b"compute hilbert(R, 1);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "gext.cli", "run", str(f)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("parse error:")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_polynomial_over_the_exponent_cap_fails_when_run(tmp_path):
    """Parsing a polynomial at parse time reports only syntax: a valid
    polynomial the monomial encoding cannot hold is still a computation
    error when its statement runs, with no traceback."""
    f = tmp_path / "cap.gx"
    f.write_text("ring R = ZZ/32003[x,y];\n"
                 "module M = coker(R, [[x^200]], degrees=[0]);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "gext.cli", "run", str(f)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr.startswith("computation error: statement 1:")
    assert "Traceback" not in proc.stderr


def test_hilbert_past_the_exponent_cap(tmp_path, run_cli):
    """hilbert counts standard monomials from the leads' Hilbert series
    and packs none of degree d, so a degree past the 127-per-exponent cap
    of the monomial encoding answers: h(200) = 3 * 200 on a plane
    cubic."""
    f = tmp_path / "cap.gx"
    f.write_text("ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);\n"
                 "compute hilbert(R, 200);\n")
    result = run_cli(["run", "--json", str(f)])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    jsonschema.validate(doc, schema())
    assert doc["results"][0]["value"] == 600


def test_exit_code_computation_error(tmp_path, run_cli):
    f = tmp_path / "bad.gx"
    f.write_text("ring R = ZZ/32003[x];\ncompute dim(Q);\n")
    result = run_cli(["run", str(f)])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["run", "{tmp}/missing.gx"],
    ["run", "{tmp}"],
    ["run", "--bogus", "{tmp}/s.gx"],
    ["run", "--prime", "x", "{tmp}/s.gx"],
    [],
], ids=["missing-file", "directory", "unknown-option", "prime-not-int",
        "no-command"])
def test_command_line_misuse_is_a_usage_error(tmp_path, run_cli, args):
    """Misuse of the command line exits 2 with a usage line on stderr and
    nothing on stdout, before any script is read."""
    (tmp_path / "s.gx").write_text("ring R = ZZ/7[x];\ncompute dim(R);\n")
    result = run_cli([a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 2
    assert result.output == ""
    assert result.stderr.startswith("usage: gext")
    assert "Traceback" not in result.stderr


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    """A reader that closes stdout early (`gext run S | head`) ends the run
    with exit 1 and nothing on stderr."""
    f = tmp_path / "s.gx"
    f.write_text("ring R = ZZ/7[x];\ncompute dim(R);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen([sys.executable, "-m", "gext.cli", "run", str(f)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    proc.stdout.close()
    _, err = proc.communicate(timeout=20)
    assert proc.returncode == 1
    assert err == b""


def test_help_lists_the_command_and_its_options(run_cli):
    top = run_cli(["--help"])
    assert top.exit_code == 0
    assert "run" in top.output
    result = run_cli(["run", "--help"])
    assert result.exit_code == 0
    for word in ("--json", "--prime", "32003"):
        assert word in result.output


def test_prime_override_only_for_kk(tmp_path, run_cli):
    f = tmp_path / "s.gx"
    f.write_text("ring R = kk[x];\nmodule F = free(R, degrees=[0]);\n"
                 "compute hilbert(F, 1);\n")
    result = run_cli(["run", str(f), "--prime", "101"])
    assert result.exit_code == 0
    assert "1" in result.output

    # explicit modulus wins over --prime
    g = tmp_path / "t.gx"
    g.write_text("ring R = ZZ/7[x];\nmodule F = free(R, degrees=[0]);\n"
                 "compute hilbert(F, 0);\n")
    result = run_cli(["run", str(g), "--prime", "101"])
    assert result.exit_code == 0


@pytest.mark.parametrize("prime", ["4", "1000000000000000003"])
@pytest.mark.parametrize("ring", ["ZZ/7[x]", "kk[x]"])
def test_invalid_prime_option_is_input_error(tmp_path, ring, prime):
    """--prime is checked when the command line is read, range first, so a
    huge value fails at once: an input error naming --prime, exit 1, even
    when the script declares no kk ring."""
    f = tmp_path / "s.gx"
    f.write_text(f"ring R = {ring};\ncompute hilbert(R, 1);\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "gext.cli", "run", "--json", "--prime", prime,
         str(f)], capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"input error: --prime {prime} is not a prime in "
                           "[2, 2^31)\n")


def test_module_payload_shapes(elliptic_ring):
    from gext import ring_module, truncate_module
    m = truncate_module(ring_module(elliptic_ring), 1)
    payload = module_payload(m)
    assert payload["generators"]
    assert all(isinstance(r, list) for r in payload["relations"])
    assert len(payload["relations"]) == len(payload["generators"])


def test_yoneda_via_script(tmp_path, run_cli):
    f = tmp_path / "y.gx"
    f.write_text("""\
ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);
compute yonedaExt(R, R, [0, 0, 0, 0, 0, 0, z, 0, 0]);
""")
    result = run_cli(["run", str(f), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, schema())
    rec = doc["results"][0]
    assert rec["kind"] == "extension"
    assert rec["verified"] == [True, True, True]
    assert len(rec["module"]["generators"]) == 7


def test_script_double_star_power():
    script = ("ring R = ZZ/32003[x,y] / (x**2 - y**2);\n"
              "compute hilbert(R, 3);\n")
    assert run_script(parse_script(script))[0].payload == 2


PARITY_SCRIPT = """\
ring S = ZZ/32003[x,y,z];
ring R = ZZ/32003[x,y,z] / (x^3 + y^3 - z^3);
module N = coker(S, [[x^2, y^2]], degrees=[0]);
compute resolution(truncate(2, twist(directSum(R, free(R, degrees=[1])), -1)), 2);
compute betti(N);
compute dim(coker(S, [[x^2, y^2]], degrees=[0]));
compute hilbert(N, 3);
compute globalExtSum(1, 0, S, N);
compute globalExt(1, R, R);
compute sheafCohomologySum(0, 0, N);
compute sheafCohomology(0, twist(R, 1));
compute yonedaExt(R, R, [0, 0, 0, 0, 0, 0, z, 0, 0]);
"""


def test_script_matches_library_calls():
    """Every constructor and command, run through a script, gives the
    provenance text of its call and the payload of the library call."""
    records = run_script(parse_script(PARITY_SCRIPT))
    assert [r.provenance for r in records] == [
        "resolution(truncate(2, twist(directSum(R, free(R, degrees=[1])), "
        "-1)), 2)",
        "betti(N)",
        "dim(coker(S, ..., degrees=[0]))",
        "hilbert(N, 3)",
        "globalExtSum(1, 0, S, N)",
        "globalExt(1, R, R)",
        "sheafCohomologySum(0, 0, N)",
        "sheafCohomology(0, twist(R, 1))",
        "yonedaExt(R, R, [0, 0, 0, 0, 0, 0, z, 0, 0])",
    ]
    assert [r.kind for r in records] == [
        "betti", "betti", "scalar", "scalar", "module", "dimension",
        "module", "dimension", "extension"]

    S = Ring(32003, ("x", "y", "z"))
    R = Ring(32003, ("x", "y", "z"), quotient=["x^3 + y^3 - z^3"])
    N = GradedModule(GradedMatrix.from_entries(S, [["x^2", "y^2"]], (0,)))
    T = truncate_module(
        twist(direct_sum(ring_module(R), free_module_of(R, (1,))), -1), 2)

    def same_module(a, b):
        assert a.generator_degrees == b.generator_degrees
        for d in range(-2, 6):
            assert hilbert_function(a, d) == hilbert_function(b, d)

    (res, betti, dim, hilb, ext_sum, ext, h_sum, h0, yoneda) = [
        r.payload for r in records]
    assert res.entries == betti_stats(
        free_resolution(T, length_cap=2)).entries
    assert betti.entries == betti_stats(free_resolution(N)).entries
    assert dim == krull_dim(N) == 1
    assert hilb == hilbert_function(N, 3) == 4
    same_module(ext_sum, global_ext_sum(1, 0, ring_module(S), N))
    assert ext == global_ext(1, ring_module(R), ring_module(R))[0] == 1
    same_module(h_sum, sheaf_cohomology_sum(0, 0, N))
    assert h0 == sheaf_cohomology(0, twist(ring_module(R), 1))[0] == 3
    direct = yoneda_extension(ring_module(R), ring_module(R),
                              ["0"] * 6 + ["z", "0", "0"])
    assert yoneda.verified == direct.verified == (True, True, True)
    same_module(yoneda.module, direct.module)


def _listed_names(text, start, end):
    """Backquoted names, each followed by '(' or '`', in text between the
    first `start` and the next `end`."""
    body = text.split(start, 1)[1].split(end, 1)[0]
    return re.findall(r"`(\w+)[(`]", body)


def test_docs_list_the_declared_commands_and_constructors():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = sorted(gext.script._COMMANDS)
    assert sorted(_listed_names(readme, "Commands:", ".")) == commands
    doc = gext.script.__doc__.split("Commands:", 1)[1].split(".", 1)[0]
    assert sorted(re.findall(r"\w+", doc)) == commands
    assert sorted(_listed_names(readme, "Module constructors:", ";")) == \
        sorted(gext.script._CONSTRUCTORS)
