"""Declarative script language for rings, modules and compute commands.

Grammar (statements end with ';', comments start with '#'):

    ring R = ZZ/32003[w,x,y,z] / (x*y-w*z, y^3-x*z^2);
    module N = coker(R, [[...]], degrees=[...]);
    module M2 = truncate(2, M);
    module T = twist(N, -1);
    module F = free(R, degrees=[0, 1]);
    compute globalExtSum(1, 0, M, N);

Commands: resolution, betti, globalExtSum, globalExt, sheafCohomologySum,
sheafCohomology, yonedaExt, hilbert, dim.  A ring name used where a module
is expected denotes the rank-1 free module R^1.
"""

from __future__ import annotations

import re

from .free import GradedMatrix
from .gmod import (GradedModule, direct_sum, free_module_of, hilbert_function,
                   krull_dim, ring_module, truncate_module, twist)
from .groebner import MINUS_INF
from .resolve import betti_stats, free_resolution
from .ring import AlgebraError, ParseError, Ring, is_prime
from .sheafext import (global_ext, global_ext_sum, sheaf_cohomology,
                       sheaf_cohomology_sum, yoneda_extension)

DEFAULT_PRIME = 32003


class ScriptError(ParseError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class ComputationError(AlgebraError):
    def __init__(self, message, statement_index):
        super().__init__(f"statement {statement_index}: {message}")
        self.statement_index = statement_index


_TOKEN = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>-?\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|[=\[\]{}(),;/^*+-])
""", re.VERBOSE)


class _Tokens:
    def __init__(self, text):
        self.items = []  # (kind, value, line, col)
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                raise ScriptError(f"bad character {text[pos]!r}", line, col)
            value = m.group(0)
            if m.lastgroup != "ws":
                self.items.append((m.lastgroup, value, line, col))
            nl = value.count("\n")
            if nl:
                line += nl
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
            pos = m.end()
        self.pos = 0

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", -1, -1)

    def next(self):
        tok = self.peek()
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, value):
        kind, got, line, col = self.next()
        if got != value:
            raise ScriptError(f"expected {value!r}, found {got or 'end of input'!r}",
                              line, col)
        return got

    def expect_kind(self, kind):
        k, got, line, col = self.next()
        if k != kind:
            raise ScriptError(f"expected {kind}, found {got or 'end of input'!r}",
                              line, col)
        return got


class Script:
    def __init__(self, statements):
        self.statements = statements  # list of (kind, payload, line)


def parse_script(text: str) -> Script:
    toks = _Tokens(text)
    statements = []
    while toks.peek()[0] != "eof":
        kind, value, line, col = toks.peek()
        if value == "ring":
            statements.append(("ring", _parse_ring(toks), line))
        elif value == "module":
            statements.append(("module", _parse_module(toks), line))
        elif value == "compute":
            statements.append(("compute", _parse_compute(toks), line))
        else:
            raise ScriptError(
                f"expected 'ring', 'module' or 'compute', found {value!r}",
                line, col)
    return Script(statements)


def _parse_ring(toks):
    toks.expect("ring")
    name = toks.expect_kind("name")
    toks.expect("=")
    kind, value, line, col = toks.next()
    prime = None
    if value == "ZZ":
        toks.expect("/")
        prime = int(toks.expect_kind("num"))
        if not is_prime(prime):
            raise ScriptError(f"{prime} is not prime", line, col)
    elif value != "kk":
        raise ScriptError("expected 'ZZ/p' or 'kk'", line, col)
    toks.expect("[")
    variables = [toks.expect_kind("name")]
    while toks.peek()[1] == ",":
        toks.next()
        variables.append(toks.expect_kind("name"))
    toks.expect("]")
    quotient = []
    if toks.peek()[1] == "/":
        toks.next()
        toks.expect("(")
        quotient.append(_parse_poly_text(toks))
        while toks.peek()[1] == ",":
            toks.next()
            quotient.append(_parse_poly_text(toks))
        toks.expect(")")
    toks.expect(";")
    return (name, prime, variables, quotient)


def _parse_poly_text(toks) -> str:
    """Collect raw tokens of one polynomial up to ',' or a closing bracket."""
    pieces = []
    depth = 0
    while True:
        kind, value, line, col = toks.peek()
        if kind == "eof":
            raise ScriptError("unterminated polynomial", line, col)
        if depth == 0 and value in (",", ")", "]", ";"):
            break
        if value == "(":
            depth += 1
        elif value == ")":
            depth -= 1
        toks.next()
        pieces.append(value)
    if not pieces:
        kind, value, line, col = toks.peek()
        raise ScriptError("empty polynomial", line, col)
    return "".join(pieces)


def _parse_int(toks) -> int:
    return int(toks.expect_kind("num"))


def _parse_int_list(toks):
    toks.expect("[")
    out = []
    if toks.peek()[1] != "]":
        out.append(_parse_int(toks))
        while toks.peek()[1] == ",":
            toks.next()
            out.append(_parse_int(toks))
    toks.expect("]")
    return out


def _parse_poly_list(toks):
    toks.expect("[")
    out = []
    if toks.peek()[1] != "]":
        out.append(_parse_poly_text(toks))
        while toks.peek()[1] == ",":
            toks.next()
            out.append(_parse_poly_text(toks))
    toks.expect("]")
    return out


def _parse_module(toks):
    toks.expect("module")
    name = toks.expect_kind("name")
    toks.expect("=")
    expr = _parse_modexpr(toks)
    toks.expect(";")
    return (name, expr)


def _parse_modexpr(toks):
    kind, head, line, col = toks.next()
    if kind != "name":
        raise ScriptError(f"expected a module expression, found {head!r}",
                          line, col)
    if toks.peek()[1] != "(":
        return ("ref", head)
    toks.next()  # (
    if head == "coker":
        ringname = toks.expect_kind("name")
        toks.expect(",")
        toks.expect("[")
        rows = [_parse_poly_list(toks)]
        while toks.peek()[1] == ",":
            toks.next()
            rows.append(_parse_poly_list(toks))
        toks.expect("]")
        toks.expect(",")
        kw = toks.expect_kind("name")
        if kw != "degrees":
            raise ScriptError("expected 'degrees='", line, col)
        toks.expect("=")
        degrees = _parse_int_list(toks)
        toks.expect(")")
        return ("coker", ringname, rows, degrees)
    if head == "free":
        ringname = toks.expect_kind("name")
        toks.expect(",")
        kw = toks.expect_kind("name")
        if kw != "degrees":
            raise ScriptError("expected 'degrees='", line, col)
        toks.expect("=")
        degrees = _parse_int_list(toks)
        toks.expect(")")
        return ("free", ringname, degrees)
    if head == "truncate":
        r = _parse_int(toks)
        toks.expect(",")
        inner = _parse_modexpr(toks)
        toks.expect(")")
        return ("truncate", r, inner)
    if head == "twist":
        inner = _parse_modexpr(toks)
        toks.expect(",")
        v = _parse_int(toks)
        toks.expect(")")
        return ("twist", inner, v)
    if head == "directSum":
        a = _parse_modexpr(toks)
        toks.expect(",")
        b = _parse_modexpr(toks)
        toks.expect(")")
        return ("directSum", a, b)
    raise ScriptError(f"unknown module constructor {head!r}", line, col)


# command -> (fewest, most) arguments
_COMMANDS = {
    "resolution": (1, 2), "betti": (1, 2), "globalExtSum": (4, 4),
    "globalExt": (3, 3), "sheafCohomologySum": (3, 3),
    "sheafCohomology": (2, 2), "yonedaExt": (3, 3), "hilbert": (2, 2),
    "dim": (1, 1),
}


def _parse_compute(toks):
    toks.expect("compute")
    kind, cmd, line, col = toks.next()
    if cmd not in _COMMANDS:
        raise ScriptError(f"unknown command {cmd!r}", line, col)
    toks.expect("(")
    args = []
    if toks.peek()[1] != ")":
        args.append(_parse_arg(toks))
        while toks.peek()[1] == ",":
            toks.next()
            args.append(_parse_arg(toks))
    toks.expect(")")
    toks.expect(";")
    lo, hi = _COMMANDS[cmd]
    if not lo <= len(args) <= hi:
        want = str(lo) if lo == hi else f"{lo} to {hi}"
        plural = "" if hi == 1 else "s"
        raise ScriptError(f"{cmd} takes {want} argument{plural}, "
                          f"got {len(args)}", line, col)
    return (cmd, args)


def _parse_arg(toks):
    kind, value, line, col = toks.peek()
    if kind == "num":
        toks.next()
        return ("int", int(value))
    if value == "[":
        return ("list", _parse_poly_list(toks))
    if kind == "name":
        return ("expr", _parse_modexpr(toks))
    raise ScriptError(f"bad argument {value!r}", line, col)


# -- execution -------------------------------------------------------------------

class ResultRecord:
    def __init__(self, kind, payload, provenance):
        self.kind = kind          # module | dimension | betti | extension | scalar
        self.payload = payload
        self.provenance = provenance


class _Env:
    def __init__(self, default_prime):
        self.rings: dict[str, Ring] = {}
        self.modules: dict[str, GradedModule] = {}
        self.default_prime = default_prime

    def module(self, name, line=0):
        if name in self.modules:
            return self.modules[name]
        if name in self.rings:
            return ring_module(self.rings[name])
        raise AlgebraError(f"unbound identifier {name!r}")


def _eval_modexpr(env: _Env, expr) -> GradedModule:
    head = expr[0]
    if head == "ref":
        return env.module(expr[1])
    if head == "coker":
        _, ringname, rows, degrees = expr
        ring = env.rings.get(ringname)
        if ring is None:
            raise AlgebraError(f"unbound ring {ringname!r}")
        if len(rows) != len(degrees):
            raise AlgebraError("degrees must match the number of rows")
        ncols = len(rows[0]) if rows else 0
        if ncols == 0:
            return free_module_of(ring, tuple(degrees))
        mat = GradedMatrix.from_entries(ring, rows, tuple(degrees))
        return GradedModule(mat)
    if head == "free":
        _, ringname, degrees = expr
        ring = env.rings.get(ringname)
        if ring is None:
            raise AlgebraError(f"unbound ring {ringname!r}")
        return free_module_of(ring, tuple(degrees))
    if head == "truncate":
        return truncate_module(_eval_modexpr(env, expr[2]), expr[1])
    if head == "twist":
        return twist(_eval_modexpr(env, expr[1]), expr[2])
    if head == "directSum":
        return direct_sum(_eval_modexpr(env, expr[1]),
                          _eval_modexpr(env, expr[2]))
    raise AlgebraError(f"bad module expression {head!r}")


def _want_int(arg, what):
    if arg[0] != "int":
        raise AlgebraError(f"expected an integer for {what}")
    return arg[1]


def _want_module(env, arg, what):
    if arg[0] != "expr":
        raise AlgebraError(f"expected a module for {what}")
    return _eval_modexpr(env, arg[1])


def _run_command(env: _Env, cmd, args):
    if cmd == "hilbert":
        m = _want_module(env, args[0], "hilbert")
        d = _want_int(args[1], "degree")
        return ResultRecord("scalar", hilbert_function(m, d), None)
    if cmd == "dim":
        m = _want_module(env, args[0], "dim")
        d = krull_dim(m)
        return ResultRecord("scalar", "-infinity" if d == MINUS_INF else d, None)
    if cmd in ("resolution", "betti"):
        m = _want_module(env, args[0], cmd)
        cap = _want_int(args[1], "length cap") if len(args) > 1 else None
        res = free_resolution(m, length_cap=cap)
        return ResultRecord("betti", betti_stats(res), None)
    if cmd == "globalExtSum":
        m_idx = _want_int(args[0], "m")
        e = _want_int(args[1], "e")
        a = _want_module(env, args[2], "M")
        b = _want_module(env, args[3], "N")
        return ResultRecord("module", global_ext_sum(m_idx, e, a, b), None)
    if cmd == "globalExt":
        m_idx = _want_int(args[0], "m")
        a = _want_module(env, args[1], "M")
        b = _want_module(env, args[2], "N")
        return ResultRecord("dimension", global_ext(m_idx, a, b)[0], None)
    if cmd == "sheafCohomologySum":
        m_idx = _want_int(args[0], "m")
        e = _want_int(args[1], "e")
        a = _want_module(env, args[2], "N")
        return ResultRecord("module", sheaf_cohomology_sum(m_idx, e, a), None)
    if cmd == "sheafCohomology":
        m_idx = _want_int(args[0], "m")
        a = _want_module(env, args[1], "N")
        return ResultRecord("dimension", sheaf_cohomology(m_idx, a)[0], None)
    if cmd == "yonedaExt":
        a = _want_module(env, args[0], "M")
        b = _want_module(env, args[1], "N")
        if args[2][0] != "list":
            raise AlgebraError("yonedaExt needs a coordinate list")
        coords = [c for c in args[2][1]]
        result = yoneda_extension(a, b, coords)
        return ResultRecord("extension", result, None)
    raise AlgebraError(f"unknown command {cmd!r}")


def run_script(script: Script, default_prime: int = DEFAULT_PRIME):
    env = _Env(default_prime)
    records = []
    for index, (kind, payload, line) in enumerate(script.statements):
        try:
            if kind == "ring":
                name, prime, variables, quotient = payload
                p = prime if prime is not None else env.default_prime
                env.rings[name] = Ring(p, variables, quotient=quotient)
            elif kind == "module":
                name, expr = payload
                env.modules[name] = _eval_modexpr(env, expr)
            else:
                cmd, args = payload
                rec = _run_command(env, cmd, args)
                argtext = ", ".join(_arg_text(a) for a in args)
                rec.provenance = f"{cmd}({argtext})"
                records.append(rec)
        except (AlgebraError, OverflowError) as err:
            if isinstance(err, ScriptError):
                raise
            raise ComputationError(str(err), index) from err
    return records


def _arg_text(arg):
    if arg[0] == "int":
        return str(arg[1])
    if arg[0] == "list":
        return "[" + ", ".join(arg[1]) + "]"
    return _expr_text(arg[1])


def _expr_text(expr):
    head = expr[0]
    if head == "ref":
        return expr[1]
    if head == "coker":
        return f"coker({expr[1]}, ..., degrees={expr[3]})"
    if head == "free":
        return f"free({expr[1]}, degrees={expr[2]})"
    if head == "truncate":
        return f"truncate({expr[1]}, {_expr_text(expr[2])})"
    if head == "twist":
        return f"twist({_expr_text(expr[1])}, {expr[2]})"
    if head == "directSum":
        return f"directSum({_expr_text(expr[1])}, {_expr_text(expr[2])})"
    return head
