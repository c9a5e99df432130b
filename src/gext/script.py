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

Each module constructor and each command is declared once, in
`_CONSTRUCTORS` or `_COMMANDS`, by the kinds of its arguments; `_KINDS`
gives each kind's parser and provenance text.  Argument counts and kinds
are checked at parse time, and so is every polynomial text: it is parsed
against the variables of the ring its call names (the ring argument, or
the ring of the first module argument), so a malformed polynomial is a
parse error before any statement runs.
"""

from __future__ import annotations

import re

from .free import GradedMatrix
from .gmod import (GradedModule, direct_sum, free_module_of, hilbert_function,
                   krull_dim, ring_module, truncate_module, twist)
from .groebner import MINUS_INF
from .resolve import betti_stats, free_resolution
from .ring import AlgebraError, ParseError, Ring, is_modulus, parse_polynomial
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
        self.end = (line, col)   # just past the last character
        self.pos = 0
        # the ring polynomial texts are checked against (None: unchecked),
        # and the parse-time ring of each name bound so far (None: unknown)
        self.ring = None
        self.scope = {"ring": {}, "module": {}}

    def peek(self):
        if self.pos < len(self.items):
            return self.items[self.pos]
        return ("eof", "", *self.end)

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

    def sequence(self, item, open, close):
        """The items of `open item, item, ... close`, possibly none."""
        self.expect(open)
        out = []
        if self.peek()[1] != close:
            out.append(item(self))
            while self.peek()[1] == ",":
                self.next()
                out.append(item(self))
        self.expect(close)
        return out

    def nonempty(self, items, expected):
        """items, unless empty: then a parse error at the closing bracket
        just read."""
        if not items:
            _, value, line, col = self.items[self.pos - 1]
            raise ScriptError(f"expected {expected}, found {value!r}", line, col)
        return items


class Script:
    def __init__(self, statements):
        self.statements = statements  # list of (kind, payload, line)


def parse_script(text: str) -> Script:
    toks = _Tokens(text)
    statements = []
    while toks.peek()[0] != "eof":
        _, word, line, col = toks.next()
        if word == "ring":
            payload = _parse_ring(toks)
        elif word == "module":
            name = toks.expect_kind("name")
            toks.expect("=")
            payload = (name, _parse_modexpr(toks))
            toks.scope["module"][name] = _ring_of(toks.scope, "module",
                                                  payload[1])
        elif word == "compute":
            payload = _parse_call(toks, toks.next(), _COMMANDS, "command")
        else:
            raise ScriptError(
                f"expected 'ring', 'module' or 'compute', found {word!r}",
                line, col)
        toks.expect(";")
        statements.append((word, payload, line))
    return Script(statements)


def _parse_ring(toks):
    name = toks.expect_kind("name")
    toks.expect("=")
    kind, value, line, col = toks.next()
    prime = None
    if value == "ZZ":
        toks.expect("/")
        line, col = toks.peek()[2:]
        prime = int(toks.expect_kind("num"))
        if not is_modulus(prime):
            raise ScriptError(f"{prime} is not a prime in [2, 2^31)",
                              line, col)
    elif value != "kk":
        raise ScriptError("expected 'ZZ/p' or 'kk'", line, col)
    variables = toks.nonempty(
        toks.sequence(lambda t: t.expect_kind("name"), "[", "]"), "name")
    try:
        toks.ring = Ring(prime or DEFAULT_PRIME, variables)
    except AlgebraError:
        toks.ring = None    # reported when the statement runs
    quotient = []
    if toks.peek()[1] == "/":
        toks.next()
        quotient = toks.nonempty(toks.sequence(_parse_poly_text, "(", ")"),
                                 "a polynomial")
    toks.scope["ring"][name] = toks.ring
    return (name, prime, variables, quotient)


def _ring_of(scope, kind, value):
    """The parse-time ring of a parsed ring or module argument, or None."""
    if kind == "ring":
        return scope["ring"].get(value)
    if isinstance(value, str):
        if value in scope["module"]:
            return scope["module"][value]
        return scope["ring"].get(value)
    name, args = value
    return _first_ring(scope, _CONSTRUCTORS[name][0], args)


def _first_ring(scope, kinds, args):
    """The parse-time ring of the first ring or module argument, or None."""
    for kind, value in zip(kinds, args):
        if kind in ("ring", "module"):
            return _ring_of(scope, kind, value)
    return None


def _parse_poly_text(toks) -> str:
    """Collect raw tokens of one polynomial up to ',' or a closing bracket,
    and parse them against toks.ring when it is set."""
    _, _, start_line, start_col = toks.peek()
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
    text = "".join(pieces)
    if toks.ring is not None:
        try:
            parse_polynomial(toks.ring, text)
        except ParseError as err:
            raise ScriptError(str(err), start_line, start_col) from None
        except (AlgebraError, OverflowError):
            pass    # not a syntax error: reported when the statement runs
    return text


def _parse_int(toks) -> int:
    return int(toks.expect_kind("num"))


def _parse_degrees(toks):
    toks.expect("degrees")
    toks.expect("=")
    return toks.sequence(_parse_int, "[", "]")


def _parse_modexpr(toks):
    """A module name (or ring name) or a constructor call."""
    head = toks.next()
    kind, name, line, col = head
    if kind != "name":
        raise ScriptError(f"expected a module expression, found {name!r}",
                          line, col)
    if toks.peek()[1] != "(":
        return name
    return _parse_call(toks, head, _CONSTRUCTORS, "module constructor")


def _parse_surplus(toks):
    """An argument past a call's last one, parsed only to be counted."""
    if toks.peek()[1] == "[":
        return toks.sequence(_parse_surplus, "[", "]")
    return _parse_poly_text(toks)


def _parse_call(toks, head, table, what):
    """(name, args) of the call `name(arg, ...)` whose name token is head,
    declared in table.

    Each argument is parsed by its declared kind.  The argument count and
    the first token of each argument are checked here and reported at the
    position of head.
    """
    _, name, line, col = head
    if name not in table:
        raise ScriptError(f"unknown {what} {name!r}", line, col)
    kinds = table[name][0]
    optional = table[name][1] if table is _COMMANDS else 0
    slots = iter(enumerate(kinds, 1))

    parsed = []

    def argument(toks):
        number, kind = next(slots, (0, None))
        if kind is None:
            toks.ring = None
            return _parse_surplus(toks)
        desc, (field, first), parse, _ = _KINDS[kind]
        tok = toks.peek()
        if tok[field] != first:
            raise ScriptError(f"argument {number} of {name} must be {desc}, "
                              f"found {tok[1] or 'end of input'!r}", line, col)
        toks.ring = _first_ring(toks.scope, kinds, parsed)
        parsed.append(parse(toks))
        return parsed[-1]

    args = toks.sequence(argument, "(", ")")
    lo, hi = len(kinds) - optional, len(kinds)
    if not lo <= len(args) <= hi:
        want = str(lo) if lo == hi else f"{lo} to {hi}"
        plural = "" if hi == 1 else "s"
        raise ScriptError(f"{name} takes {want} argument{plural}, "
                          f"got {len(args)}", line, col)
    return (name, args)


def _text(table, name, args):
    """Provenance text of the call name(args) declared in table."""
    kinds = table[name][0]
    return f"{name}({', '.join(_KINDS[k][3](a) for k, a in zip(kinds, args))})"


# argument kind -> (description, the (field, value) its first token must
# have, parser, provenance text); token field 0 is the lexical class
_KINDS = {
    "int": ("an integer", (0, "num"), _parse_int, str),
    "ring": ("a ring name", (0, "name"), lambda t: t.expect_kind("name"), str),
    "module": ("a module", (0, "name"), _parse_modexpr,
               lambda m: m if isinstance(m, str) else _text(_CONSTRUCTORS, *m)),
    "matrix": ("a list of rows", (1, "["),
               lambda t: t.nonempty(t.sequence(_KINDS["coords"][2], "[", "]"),
                                    "'['"),
               lambda rows: "..."),
    "degrees": ("'degrees='", (1, "degrees"), _parse_degrees,
                "degrees={}".format),
    "coords": ("a list of polynomials", (1, "["),
               lambda t: t.sequence(_parse_poly_text, "[", "]"),
               lambda c: "[" + ", ".join(c) + "]"),
}


def _coker(ring, rows, degrees):
    if len(rows) != len(degrees):
        raise AlgebraError("degrees must match the number of rows")
    if not rows[0]:
        return free_module_of(ring, tuple(degrees))
    return GradedModule(GradedMatrix.from_entries(ring, rows, tuple(degrees)))


def _betti(module, cap=None):
    return betti_stats(free_resolution(module, length_cap=cap))


def _dim(module):
    d = krull_dim(module)
    return "-infinity" if d == MINUS_INF else d


# Table entries call library functions by their global names when they run,
# so that a function replaced in this module after import (a tracing
# wrapper, say) is the one called.

# constructor -> (argument kinds, builder)
_CONSTRUCTORS = {
    "coker": (("ring", "matrix", "degrees"), _coker),
    "free": (("ring", "degrees"),
             lambda ring, degrees: free_module_of(ring, tuple(degrees))),
    "truncate": (("int", "module"), lambda r, m: truncate_module(m, r)),
    "twist": (("module", "int"), lambda m, v: twist(m, v)),
    "directSum": (("module", "module"), lambda a, b: direct_sum(a, b)),
}

# command -> (argument kinds, count of optional trailing arguments,
# record kind, function)
_COMMANDS = {
    "resolution": (("module", "int"), 1, "betti", _betti),
    "betti": (("module", "int"), 1, "betti", _betti),
    "globalExtSum": (("int", "int", "module", "module"), 0, "module",
                     lambda i, e, a, b: global_ext_sum(i, e, a, b)),
    "globalExt": (("int", "module", "module"), 0, "dimension",
                  lambda i, a, b: global_ext(i, a, b)[0]),
    "sheafCohomologySum": (("int", "int", "module"), 0, "module",
                           lambda i, e, n: sheaf_cohomology_sum(i, e, n)),
    "sheafCohomology": (("int", "module"), 0, "dimension",
                        lambda i, n: sheaf_cohomology(i, n)[0]),
    "yonedaExt": (("module", "module", "coords"), 0, "extension",
                  lambda a, b, coords: yoneda_extension(a, b, coords)),
    "hilbert": (("module", "int"), 0, "scalar",
                lambda m, d: hilbert_function(m, d)),
    "dim": (("module",), 0, "scalar", _dim),
}


# -- execution -------------------------------------------------------------------

class ResultRecord:
    def __init__(self, kind, payload, provenance):
        self.kind = kind          # module | dimension | betti | extension | scalar
        self.payload = payload
        self.provenance = provenance


def _eval(env, kind, value):
    """The value of a parsed argument; env maps "ring" and "module" to the
    names bound so far."""
    if kind == "ring":
        if value not in env["ring"]:
            raise AlgebraError(f"unbound ring {value!r}")
        return env["ring"][value]
    if kind != "module":
        return value
    if not isinstance(value, str):
        return _apply(env, _CONSTRUCTORS, *value)
    if value in env["module"]:
        return env["module"][value]
    if value in env["ring"]:
        return ring_module(env["ring"][value])
    raise AlgebraError(f"unbound identifier {value!r}")


def _apply(env, table, name, args):
    """Call the builder or function of name in table on args' values."""
    kinds, call = table[name][0], table[name][-1]
    return call(*[_eval(env, k, a) for k, a in zip(kinds, args)])


def run_script(script: Script, default_prime: int = DEFAULT_PRIME):
    env = {"ring": {}, "module": {}}
    records = []
    for index, (kind, payload, line) in enumerate(script.statements):
        try:
            if kind == "ring":
                name, prime, variables, quotient = payload
                p = prime if prime is not None else default_prime
                env["ring"][name] = Ring(p, variables, quotient=quotient)
            elif kind == "module":
                name, expr = payload
                env["module"][name] = _eval(env, "module", expr)
            else:
                name, args = payload
                records.append(ResultRecord(
                    _COMMANDS[name][2], _apply(env, _COMMANDS, name, args),
                    _text(_COMMANDS, name, args)))
        except (AlgebraError, OverflowError) as err:
            raise ComputationError(str(err), index) from err
    return records
