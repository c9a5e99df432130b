"""Inputs and closed-form answer checks for the three benchmark workloads.

Every input is generated here from the workload seed and handed to gext as
polynomial text or committed script files, so the program only ever sees
the generated inputs.  Every answer is checked against a closed form or an
identity that does not depend on the seed.

A query is a tuple ``(name, call, check)``: ``call()`` performs one library
call and returns its result, ``check(result)`` returns ``None`` when the
answer is right and a short message otherwise.  Checks run outside the
per-query timer but inside the pass wall time.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from math import comb

try:
    import jsonschema
except ImportError:   # optional: without it only the closed forms are checked
    jsonschema = None

P = 32003

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SCRIPT_DIR = os.path.join(BENCH_DIR, "scripts")


# -- polynomial text over x0..x{n-1}, as {exponent tuple: coefficient} ---------

def _parse_terms(text: str, nvars: int) -> dict:
    """Read "x1*x2 - x0^2*x3" (unit coefficients, +/- signs) into a dict."""
    out = {}
    for sign, body in _signed_terms(text):
        exps = [0] * nvars
        for factor in body.split("*"):
            var, _, power = factor.partition("^")
            exps[int(var[1:])] += int(power or 1)
        key = tuple(exps)
        out[key] = (out.get(key, 0) + sign) % P
    return {k: c for k, c in out.items() if c}


def _signed_terms(text: str):
    sign = 1
    for tok in text.replace("-", " - ").replace("+", " + ").split():
        if tok in "+-":
            sign = -1 if tok == "-" else 1
        else:
            yield sign, tok
            sign = 1


def _render(poly: dict) -> str:
    pieces = []
    for exps, c in sorted(poly.items(), reverse=True):
        mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                        for i, e in enumerate(exps) if e)
        pieces.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(pieces) if pieces else "0"


def _substitute(poly: dict, perm, scale) -> dict:
    """Image of poly under x_i -> scale[i] * x_{perm[i]}."""
    out = {}
    for exps, c in poly.items():
        new = [0] * len(exps)
        for i, e in enumerate(exps):
            new[perm[i]] += e
            c = c * pow(scale[i], e, P) % P
        out[tuple(new)] = c
    return out


def _monomials(nvars: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def _dense_form(nvars: int, degree: int, rng: random.Random) -> dict:
    """A form with every monomial of the degree and nonzero coefficients."""
    return {m: rng.randrange(1, P) for m in _monomials(nvars, degree)}


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = tuple(x + y for x, y in zip(ea, eb))
            out[k] = (out.get(k, 0) + ca * cb) % P
    return {k: c for k, c in out.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = (out.get(k, 0) + c) % P
    return {k: c for k, c in out.items() if c}


def _variables(nvars: int):
    return [f"x{i}" for i in range(nvars)]


# -- ext_cotangent -------------------------------------------------------------

def _rational_normal_curve(n: int):
    """2x2 minors of [[x0..x{n-1}], [x1..xn]]: the degree-n curve in P^n."""
    return [f"x{i}*x{j + 1} - x{i + 1}*x{j}"
            for i in range(n) for j in range(i + 1, n)]


class Variety:
    """A smooth projective variety given by its homogeneous ideal.

    ``omega_hp`` and ``tangent_hp`` are the Hilbert polynomials of the
    twisted cotangent and tangent sheaves, chi(Omega(v)) and chi(T(v)),
    which the Hilbert functions of the modules from `cotangent_module`
    must reach at the degrees in ``HP_DEGREES``.  ``symmetries`` are the
    variable permutations that map the ideal to itself.
    """

    def __init__(self, name, nvars, gens, omega_hp, tangent_hp, symmetries,
                 omega_side=True):
        self.name = name
        self.nvars = nvars
        self.gens = gens
        self.omega_hp = omega_hp
        self.tangent_hp = tangent_hp
        self.symmetries = symmetries
        self.omega_side = omega_side


def _reversal(nvars: int):
    return [list(range(nvars)), list(range(nvars))[::-1]]


def _curve(name, nvars, gens, degree, genus, symmetries):
    # Riemann-Roch: chi(Omega(v)) = v*deg + g - 1, chi(T(v)) = v*deg + 3 - 3g
    return Variety(name, nvars, gens,
                   lambda v: v * degree + genus - 1,
                   lambda v: v * degree + 3 - 3 * genus, symmetries)


def _veronese_symmetries():
    """S_3 acting on s, t, u permutes the monomials s^2, st, su, t^2, tu,
    u^2, which are the variables x0..x5 of the Veronese surface."""
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    return [[pairs.index(tuple(sorted((sigma[a], sigma[b])))) for a, b in pairs]
            for sigma in itertools.permutations(range(3))]


VARIETIES = [
    _curve("twisted_cubic", 4, _rational_normal_curve(3), 3, 0, _reversal(4)),
    _curve("rational_quartic", 4,
           ["x1*x2 - x0*x3", "x2^3 - x1*x3^2", "x0*x2^2 - x1^2*x3",
            "x1^3 - x0^2*x2"], 4, 0, _reversal(4)),
    _curve("rational_normal_quartic", 5, _rational_normal_curve(4), 4, 0,
           _reversal(5)),
    _curve("plane_quartic", 3, ["x0^4 + x1^4 + x2^4"], 4, 3,
           [list(p) for p in itertools.permutations(range(3))]),
    # the Veronese surface is P^2 with O(1) = O_P2(2); Euler sequence:
    # chi(Omega_P2(k)) = k^2 - 1 and chi(T_P2(k)) = (k + 2)(k + 4), k = 2v.
    # Its Omega side takes minutes, so only the Omega-dual side runs.
    Variety("veronese_surface", 6,
            ["x1^2 - x0*x3", "x1*x2 - x0*x4", "x2*x3 - x1*x4",
             "x2^2 - x0*x5", "x2*x4 - x1*x5", "x4^2 - x3*x5"],
            lambda v: 4 * v * v - 1, lambda v: (2 * v + 2) * (2 * v + 4),
            _veronese_symmetries(), omega_side=False),
]

HP_DEGREES = (6, 7)
EXPECTED_H1_OMEGA = [1, 0, 0, 0]   # h^1(Omega(v)), v = 0..3


def ext_cotangent_inputs(seed: int):
    """Per variety: (variety, quotient polynomial texts) after a seeded
    permutation and nonzero rescaling of the variables.

    The permutation is drawn from the variety's symmetries.  A general
    permutation changes the grevlex computation itself: the P^4 quartic's
    Omega side took 7 s in one variable order and 78 s in another, which
    would make the cost depend on the seed far more than on the code.
    Rescaling keeps every lead term, so it changes coefficients only.
    """
    rng = random.Random(f"ext_cotangent:{seed}")
    out = []
    for var in VARIETIES:
        perm = rng.choice(var.symmetries)
        scale = [rng.randrange(1, P) for _ in range(var.nvars)]
        texts = [_render(_substitute(_parse_terms(g, var.nvars), perm, scale))
                 for g in var.gens]
        out.append((var, texts))
    return out


def ext_cotangent_queries(gext, seed: int):
    """Build the rings (set-up) and return the query list."""
    queries = []
    for var, texts in ext_cotangent_inputs(seed):
        ring = gext.ring.Ring(P, _variables(var.nvars), quotient=texts)
        queries.extend(_variety_queries(gext, var, ring))
    return queries


def _variety_queries(gext, var, ring):
    state = {}
    hf = gext.gmod.hilbert_function

    def cotangent():
        state["omega"], state["dual"] = gext.sheafext.cotangent_module(ring)
        return state["omega"], state["dual"]

    def check_cotangent(result):
        omega, dual = result
        for v in HP_DEGREES:
            got = (hf(omega, v), hf(dual, v))
            want = (var.omega_hp(v), var.tangent_hp(v))
            if got != want:
                return f"{var.name}: HF(Omega, Omega-dual) at {v} = {got}, want {want}"
        return None

    def check_h1(result):
        got = [hf(result, d) for d in range(4)]
        if got != EXPECTED_H1_OMEGA:
            return f"{var.name}: Hilbert function {got}, want {EXPECTED_H1_OMEGA}"
        return None

    def dual_side():
        rmod = gext.gmod.ring_module(ring)
        return gext.sheafext.global_ext_sum(1, 0, state["dual"], rmod)

    def omega_side():
        rmod = gext.gmod.ring_module(ring)
        return gext.sheafext.global_ext_sum(1, 0, rmod, state["omega"])

    queries = [(f"{var.name}.cotangent_module", cotangent, check_cotangent),
               (f"{var.name}.ext1_dual_O", dual_side, check_h1)]
    if var.omega_side:
        queries.append((f"{var.name}.ext1_O_omega", omega_side, check_h1))
    return queries


# -- resolve_ci ----------------------------------------------------------------

# (name, number of variables, generator degrees, complete intersection?)
IDEALS = [
    ("ci_2222_in_4", 4, (2, 2, 2, 2), True),
    ("ci_223_in_4", 4, (2, 2, 3), True),
    ("ci_2223_in_5", 5, (2, 2, 2, 3), True),
    ("ci_2233_in_5", 5, (2, 2, 3, 3), True),
    ("over_22222_in_4", 4, (2, 2, 2, 2, 2), False),
    ("over_222222_in_4", 4, (2, 2, 2, 2, 2, 2), False),
]
COMBINATIONS = 4      # random combinations of the generators per ideal
RANDOM_FORMS = 4      # random forms reduced per ideal
HILBERT_WINDOW = range(0, 8)


def koszul_betti(degrees) -> dict:
    """Betti table {(i, a): b} of S/(f_1..f_c) for a regular sequence."""
    out = {}
    for i in range(len(degrees) + 1):
        for subset in itertools.combinations(degrees, i):
            key = (i, sum(subset))
            out[key] = out.get(key, 0) + 1
    return out


def hilbert_from_betti(entries: dict, nvars: int, d: int) -> int:
    """HF(d) of a module from its graded Betti numbers over S."""
    total = 0
    for (i, a), b in entries.items():
        if d - a >= 0:
            total += (-1) ** i * b * comb(d - a + nvars - 1, nvars - 1)
    return total


def resolve_ci_inputs(seed: int):
    """Per ideal: generator texts, combination texts and random-form texts.

    Generators are dense forms with random nonzero coefficients, so with
    overwhelming probability they are generic and the complete
    intersections are regular sequences.
    """
    rng = random.Random(f"resolve_ci:{seed}")
    out = []
    for name, nvars, degrees, is_ci in IDEALS:
        gens = [_dense_form(nvars, d, rng) for d in degrees]
        combos = []
        for _ in range(COMBINATIONS):
            target = max(degrees) + rng.choice((0, 1, 2))
            total = {}
            for g, d in zip(gens, degrees):
                total = _add(total, _mul(_dense_form(nvars, target - d, rng), g))
            combos.append((target, total))
        forms = []
        for _ in range(RANDOM_FORMS):
            d = rng.choice((2, 3, 4, 5, 6))
            forms.append((d, _render(_dense_form(nvars, d, rng))))
        out.append((name, nvars, degrees, is_ci,
                    [_render(g) for g in gens],
                    [(t, _render(c)) for t, c in combos],
                    forms))
    return out


def resolve_ci_queries(gext, seed: int):
    queries = []
    for name, nvars, degrees, is_ci, gens, combos, forms in \
            resolve_ci_inputs(seed):
        ring = gext.ring.Ring(P, _variables(nvars))
        queries.extend(_ideal_queries(gext, name, nvars, degrees, is_ci, ring,
                                      gens, combos, forms))
    return queries


def _ideal_queries(gext, name, nvars, degrees, is_ci, ring, gens, combos,
                   forms):
    free = gext.free
    fm = free.FreeModule(ring, (0,))

    def element(text):
        f = ring.polynomial(text)
        return free.ModuleElement(fm, {(0, m): c for m, c in f.terms.items()})

    gen_elts = [element(t) for t in gens]
    combo_elts = [element(t) for _, t in combos]
    form_elts = [(d, element(t)) for d, t in forms]
    module = gext.gmod.cokernel(free.GradedMatrix.from_entries(
        ring, [gens], (0,), source_twists=degrees))
    ctx = ring.ctx
    state = {}
    expected_hf = None
    if is_ci:
        koszul = koszul_betti(degrees)
        expected_hf = {d: hilbert_from_betti(koszul, nvars, d)
                       for d in range(0, 16)}

    def gb():
        state["gb"] = gext.groebner.groebner_basis(gen_elts, ambient=fm)
        return state["gb"]

    def check_gb(result):
        if not all(result.contains(g) for g in gen_elts):
            return f"{name}: a generator does not reduce to zero"
        return None

    def reduce(v):
        return lambda: gext.groebner.normal_form(v, state["gb"])

    def check_zero(result):
        return None if result.is_zero() else \
            f"{name}: a combination of the generators has nonzero normal form"

    def check_normal(d):
        def check(result):
            leads = [lead for (_, lead) in state["gb"].lead_terms()]
            for (_, m) in result.data:
                if any(ctx.divides(lead, m) for lead in leads):
                    return f"{name}: normal form has a reducible term"
            if expected_hf is not None and expected_hf.get(d, 0) == 0 \
                    and not result.is_zero():
                return f"{name}: degree-{d} form outside a zero component"
            return None
        return check

    def resolution():
        state["res"] = gext.resolve.free_resolution(module)
        return state["res"]

    def check_resolution(result):
        return None if result.complete else f"{name}: resolution incomplete"

    def betti():
        state["betti"] = gext.resolve.betti_stats(state["res"])
        return state["betti"]

    def check_betti(result):
        if is_ci and result.entries != koszul:
            return f"{name}: Betti table {sorted(result.entries.items())} " \
                   f"is not the Koszul table"
        return None

    def hilbert(d):
        return lambda: gext.gmod.hilbert_function(module, d)

    def check_hilbert(d):
        def check(result):
            want = hilbert_from_betti(state["betti"].entries, nvars, d)
            if result != want:
                return f"{name}: HF({d}) = {result}, Betti numerator gives {want}"
            if expected_hf is not None and result != expected_hf[d]:
                return f"{name}: HF({d}) = {result}, closed form {expected_hf[d]}"
            return None
        return check

    queries = [(f"{name}.groebner_basis", gb, check_gb)]
    queries += [(f"{name}.normal_form.combination", reduce(v), check_zero)
                for v in combo_elts]
    queries += [(f"{name}.normal_form.form", reduce(v), check_normal(d))
                for d, v in form_elts]
    queries += [(f"{name}.free_resolution", resolution, check_resolution),
                (f"{name}.betti_stats", betti, check_betti)]
    queries += [(f"{name}.hilbert_function", hilbert(d), check_hilbert(d))
                for d in HILBERT_WINDOW]
    return queries


# -- cli_scripts ---------------------------------------------------------------

def _line_bundle_h(m: int, v: int) -> int:
    """h^m(P^2, O(v)): monomial counts (Bott / Serre duality)."""
    if m == 0:
        return comb(v + 2, 2) if v >= 0 else 0
    if m == 2:
        return comb(-v - 1, 2) if v <= -3 else 0
    return 0


def _expect_quartic(results):
    betti = results[0]["betti"]
    degrees = {}
    for key, b in betti.items():
        i, a = map(int, key.split(","))
        degrees.setdefault(i, []).extend([a] * b)
    want_betti = {0: [0], 1: [2, 3, 3, 3], 2: [4, 4, 4, 4], 3: [5]}
    got = {i: sorted(a) for i, a in degrees.items()}
    if got != want_betti:
        return f"quartic Betti degrees {got}"
    if results[1]["module"]["generators"]:
        return "globalExtSum(1, 0, S, S/I) is not zero"
    # rational quartic: Hilbert polynomial 4d + 1 from degree 2 on
    if results[2]["value"] != 9 or results[3]["value"] != 2:
        return f"hilbert/dim = {results[2]['value']}, {results[3]['value']}"
    return None


def _elliptic_hf(d: int) -> int:
    """HF of the plane cubic's coordinate ring: 1, then 3d."""
    return 1 if d == 0 else 3 * d


def _expect_elliptic(results):
    if results[0]["value"] != 1:
        return f"elliptic genus {results[0]['value']}"
    ext = results[1]
    if ext["kind"] != "extension" or ext["verified"] != [True, True, True]:
        return f"Yoneda certificate {ext.get('verified')}"
    # 0 -> R -> E -> R_{>=2} -> 0 is exact, so Hilbert functions add
    trunc = {int(d): v for d, v in ext["truncated"]["hilbert"].items()}
    if trunc != {d: _elliptic_hf(d) for d in range(2, 10)}:
        return f"truncation Hilbert function {trunc}"
    got = {int(d): v for d, v in ext["module"]["hilbert"].items()}
    want = {d: _elliptic_hf(d) + trunc.get(d, 0) for d in range(0, 8)}
    if got != want:
        return f"extension Hilbert function {got}, want {want}"
    return None


def _expect_del_pezzo(results):
    ext = tuple(r["value"] for r in results[:3])
    coh = tuple(r["value"] for r in results[3:6])
    if ext != (2, 2, 0) or coh != (2, 2, 0):
        return f"duality dims {ext} vs {coh}, want (2, 2, 0)"
    return None


def _expect_line_bundles(results):
    values = [r["value"] for r in results]
    want = [_line_bundle_h(m, v) for v in range(-5, 4) for m in range(3)]
    return None if values == want else f"line bundle dims {values}"


def _expect_genera(results):
    values = [r["value"] for r in results]
    want = [(d - 1) * (d - 2) // 2 for d in (4, 5)] * 2
    return None if values == want else f"plane genera {values}, want {want}"


# script file -> number of results and its closed-form check
CLI_SCRIPTS = {
    "quartic_sharpness.gx": (4, _expect_quartic),
    "elliptic_yoneda.gx": (2, _expect_elliptic),
    "del_pezzo_duality.gx": (6, _expect_del_pezzo),
    "p2_line_bundles.gx": (27, _expect_line_bundles),
    "plane_genera.gx": (4, _expect_genera),
}


def cli_script_order(seed: int):
    """The seed fixes the order in which a pass runs the scripts."""
    names = sorted(CLI_SCRIPTS)
    random.Random(f"cli_scripts:{seed}").shuffle(names)
    return names


def load_schema(src_dir: str):
    with open(os.path.join(src_dir, "gext", "result_schema.json")) as fh:
        return json.load(fh)


def check_cli_output(name: str, stdout: str, schema) -> str | None:
    """None when the JSON document of a script run is valid and right."""
    try:
        doc = json.loads(stdout)
    except ValueError as err:
        return f"{name}: output is not JSON ({err})"
    if jsonschema is not None:
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError as err:
            return f"{name}: schema violation: {err.message}"
    count, expect = CLI_SCRIPTS[name]
    results = doc.get("results", [])
    if len(results) != count:
        return f"{name}: {len(results)} results, want {count}"
    try:
        return expect(results)
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        return f"{name}: malformed result ({type(err).__name__}: {err})"
