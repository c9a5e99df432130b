"""Script language and command-line front end."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from gext.cli import main, module_payload
from gext.script import (ComputationError, ScriptError, parse_script,
                         run_script)
from gext import hilbert_function

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


def run_cli(args):
    return CliRunner().invoke(main, args)


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


def test_nonprime_modulus_is_parse_error():
    with pytest.raises(ScriptError):
        parse_script("ring R = ZZ/4[x];")


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


def test_cli_text_output(tmp_path):
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


def test_cli_determinism(tmp_path):
    f = tmp_path / "s.gx"
    f.write_text(QUARTIC_SCRIPT)
    out1 = run_cli(["run", str(f)]).output
    out2 = run_cli(["run", str(f)]).output
    assert out1 == out2
    j1 = run_cli(["run", str(f), "--json"]).output
    j2 = run_cli(["run", str(f), "--json"]).output
    assert j1 == j2


def test_cli_json_schema(tmp_path):
    f = tmp_path / "s.gx"
    f.write_text(QUARTIC_SCRIPT + "compute betti(N);\n")
    result = run_cli(["run", str(f), "--json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    jsonschema.validate(doc, schema())
    assert doc["prime"] == 32003


def test_json_hilbert_agrees_with_library(tmp_path):
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


def test_json_module_roundtrip(tmp_path):
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


def test_exit_code_parse_error(tmp_path):
    f = tmp_path / "bad.gx"
    f.write_text("ring R = ZZ/32003[x,y;\n")
    result = run_cli(["run", str(f)])
    assert result.exit_code == 1


@pytest.mark.parametrize("statement", [
    "compute hilbert(R);", "compute dim();", "compute dim(R, 1);",
    "compute betti(R, 1, 2);", "compute globalExtSum(1, 0, R);",
    "compute yonedaExt(R, R);",
])
def test_wrong_arity_is_parse_error(tmp_path, statement):
    """`gext run` reports a wrong argument count as a one-line parse error
    with the statement position, exit code 1 and no traceback."""
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


def test_exit_code_computation_error(tmp_path):
    f = tmp_path / "bad.gx"
    f.write_text("ring R = ZZ/32003[x];\ncompute dim(Q);\n")
    result = run_cli(["run", str(f)])
    assert result.exit_code == 2


def test_prime_override_only_for_kk(tmp_path):
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


def test_module_payload_shapes(elliptic_ring):
    from gext import ring_module, truncate_module
    m = truncate_module(ring_module(elliptic_ring), 1)
    payload = module_payload(m)
    assert payload["generators"]
    assert all(isinstance(r, list) for r in payload["relations"])
    assert len(payload["relations"]) == len(payload["generators"])


def test_yoneda_via_script(tmp_path):
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
