"""Buchberger's algorithm for submodules of graded free modules.

One engine drives everything above it: Groebner bases, normal forms,
syzygies (via reduction tracking, Schreyer style), minimal generators
(degree-synchronized insertion) and membership certificates.

Every normal form is computed by one kernel, `normal_form_terms`.  Its
four callers are `ModuleComputation._reduce` (tracked or untracked, inside
Buchberger), `GroebnerBasis.reduce` (hence `normal_form`), `_autoreduce`
(tails of a finished basis) and, through `Ring.reduce_terms` and
`ModuleElement.reduced`, the canonical forms of quotient-ring elements.
Each caller hands it a `DivisorIndex`, which tries the quotient leads
first and then its own divisors in insertion order, and stores each
divisor's tail once, when the divisor is added.

Quotient rings R = S/I are handled by treating GB(I) times every basis
vector as *virtual* divisors: they reduce terms and form S-pairs against
real elements, but pairs among themselves are skipped (they reduce to
zero inside the ideal, since GB(I) is already a Groebner basis).

Determinism: pair selection by (degree of the lcm term, insertion
sequence); all containers iterate in insertion order.
"""

from __future__ import annotations

import heapq

from .free import FreeModule, GradedMatrix, ModuleElement
from .ring import AlgebraError, NotHomogeneous, RingMismatch, field_inverse

INF = float("inf")
MINUS_INF = float("-inf")


# -- the normal-form kernel ---------------------------------------------------

class DivisorIndex(dict):
    """comp -> divisor entries for `normal_form_terms`: the quotient
    divisors GB(I) e_comp first (filled in on first lookup), then the
    divisors appended with `add`, in insertion order."""

    __slots__ = ("quot",)

    def __init__(self, quot):
        super().__init__()
        self.quot = quot    # ((lead, terms sorted descending), ...)

    def __missing__(self, comp):
        entries = self[comp] = [
            [lead, tuple(((comp, m), c) for m, c in qterms[1:]), None]
            for lead, qterms in self.quot]
        return entries

    def add(self, comp, lead, terms, track):
        """Append the monic divisor with lead term (comp, lead); returns
        its entry [lead, tail, track]."""
        entry = [lead,
                 tuple((k, c) for k, c in terms.items() if k != (comp, lead)),
                 track]
        self[comp].append(entry)
        return entry


def normal_form_terms(ambient: FreeModule, index: DivisorIndex, terms,
                      track) -> dict:
    """Full normal form of a term dict {(comp, mono): coeff} of `ambient`.

    Each term is reduced by the first entry of index[comp] whose lead
    divides it.  When `track` is a dict, that divisor's track times the
    multiplier is subtracted from it in place; None tracks nothing.
    """
    ring = ambient.ring
    ctx = ring.ctx
    divides, mul, degree = ctx.divides, ctx.mul, ctx.degree
    p = ring.p
    twists = ambient.twists
    coeffs = dict(terms)
    heap = [(-(degree(m) + twists[j]), j, -m) for (j, m) in coeffs]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        _, comp, negm = heapq.heappop(heap)
        mono = -negm
        c = coeffs.pop((comp, mono), 0)
        if not c:
            continue
        for lead, tail, dtrack in index[comp]:
            if divides(lead, mono):
                break
        else:
            out[(comp, mono)] = c
            continue
        u = ctx.quotient(mono, lead)
        for (gj, gm), gc in tail:
            k = (gj, mul(gm, u))
            old = coeffs.get(k, 0)
            nc = (old - c * gc) % p
            if nc:
                if not old:
                    heapq.heappush(
                        heap, (-(degree(k[1]) + twists[gj]), gj, -k[1]))
                coeffs[k] = nc
            elif old:
                del coeffs[k]
        if track is not None and dtrack:
            for (gi, gm), gc in dtrack.items():
                k = (gi, mul(gm, u))
                nv = (track.get(k, 0) - c * gc) % p
                if nv:
                    track[k] = nv
                else:
                    track.pop(k, None)
    return out


# -- the engine -----------------------------------------------------------------

class _Basis:
    """One element of the working basis (monic)."""

    __slots__ = ("comp", "lead", "terms", "track", "pure", "seq")

    def __init__(self, comp, lead, terms, track, seq):
        self.comp = comp
        self.lead = lead
        self.terms = terms      # dict {(comp, mono): coeff}, lead coeff 1
        self.track = track      # dict {(gen_index, mono): coeff} or None
        self.pure = all(k[0] == comp for k in terms)
        self.seq = seq


_KIND_PAIR, _KIND_REL, _KIND_GEN = 0, 1, 2


class ModuleComputation:
    """Degree-by-degree Buchberger over one ambient free module.

    gens are tracked candidates (inserted in degree order, marked minimal
    when they do not reduce to zero); rels are untracked elements already
    known to lie in the submodule (ambient relations).
    """

    def __init__(self, ambient: FreeModule, gens, rels=(), track=False):
        self.ambient = ambient
        ring = ambient.ring
        self.ring = ring
        self.ctx = ring.ctx
        self.p = ring.p
        self.twists = ambient.twists
        self.track = track
        self.quot = ring.quotient_groebner()
        self.basis: list[_Basis] = []
        self._by_comp: dict[int, list] = {}    # comp -> [(lead, _Basis)]
        self._index = DivisorIndex(self.quot)
        self.events: list = []
        self._seq = 0
        self.min_indices: list[int] = []
        self.min_elements: list[ModuleElement] = []
        self.syzygy_tracks: list[dict] = []
        self.gens = list(gens)
        for idx, g in enumerate(self.gens):
            if g.ambient != ambient:
                raise RingMismatch(f"generator {idx} in wrong ambient module")
            if not g.is_homogeneous():
                raise NotHomogeneous(f"generator {idx} is not homogeneous")
            if g.is_zero():
                continue
            self._push(g.degree(), _KIND_GEN, (idx, g))
        for r in rels:
            if r.ambient != ambient:
                raise RingMismatch("relation in wrong ambient module")
            if not r.is_homogeneous():
                raise NotHomogeneous("relation is not homogeneous")
            if r.is_zero():
                continue
            self._push(r.degree(), _KIND_REL, r)

    # -- scheduling ---------------------------------------------------------

    def _push(self, degree, kind, payload):
        heapq.heappush(self.events, (degree, kind, self._seq, payload))
        self._seq += 1

    # -- reduction ----------------------------------------------------------

    def _reduce(self, terms, track):
        """Normal form of terms; track (a dict or None) is updated in place."""
        return normal_form_terms(self.ambient, self._index, terms, track)

    # -- basis growth -------------------------------------------------------

    def _add_basis(self, terms, track):
        (comp, lead), lc = max(
            ((k, v) for k, v in terms.items()),
            key=lambda kv: (self.ctx.degree(kv[0][1]) + self.twists[kv[0][0]],
                            -kv[0][0], kv[0][1]))
        inv = field_inverse(lc, self.p)
        terms = {k: (v * inv) % self.p for k, v in terms.items()}
        if track is not None:
            track = {k: (v * inv) % self.p for k, v in track.items()}
        b = _Basis(comp, lead, terms, track, len(self.basis))
        ctx = self.ctx
        # pairs with real elements sharing the lead component
        for lead2, b2 in self._by_comp.get(comp, ()):
            lcm = ctx.lcm(lead, lead2)
            if (not self.track and b.pure and b2.pure
                    and lcm == ctx.mul(lead, lead2)):
                continue  # coprime leads of single-component elements
            deg = ctx.degree(lcm) + self.twists[comp]
            self._push(deg, _KIND_PAIR, (b2.seq, b.seq, lcm))
        # pairs with virtual quotient divisors
        for qlead, qterms in self.quot:
            lcm = ctx.lcm(lead, qlead)
            if not self.track and b.pure and lcm == ctx.mul(lead, qlead):
                continue
            deg = ctx.degree(lcm) + self.twists[comp]
            self._push(deg, _KIND_PAIR, (b.seq, -1, (lcm, qterms)))
        self.basis.append(b)
        self._by_comp.setdefault(comp, []).append((lead, b))
        self._index.add(comp, lead, terms, track)
        return b

    def _chain_skip(self, s, t, lcm):
        ctx = self.ctx
        comp = self.basis[s].comp
        ls = self.basis[s].lead
        lt = self.basis[t].lead
        for lead, b in self._by_comp.get(comp, ()):
            if b.seq in (s, t):
                continue
            if ctx.divides(lead, lcm):
                if ctx.lcm(ls, lead) != lcm and ctx.lcm(lead, lt) != lcm:
                    return True
        return False

    def _process_pair(self, payload):
        ctx = self.ctx
        p = self.p
        s, t, lcm = payload
        bs = self.basis[s]
        if t == -1:
            lcm, qterms = lcm
            us = ctx.quotient(lcm, bs.lead)
            terms = {(j, ctx.mul(m, us)): c for (j, m), c in bs.terms.items()}
            track = ({(i, ctx.mul(m, us)): c for (i, m), c in bs.track.items()}
                     if self.track else None)
            qlead = qterms[0][0]
            ut = ctx.quotient(lcm, qlead)
            comp = bs.comp
            for gm, gc in qterms:
                k = (comp, ctx.mul(gm, ut))
                nc = (terms.get(k, 0) - gc) % p
                if nc:
                    terms[k] = nc
                else:
                    terms.pop(k, None)
        else:
            if not self.track and self._chain_skip(s, t, lcm):
                return
            bt = self.basis[t]
            us = ctx.quotient(lcm, bs.lead)
            ut = ctx.quotient(lcm, bt.lead)
            terms = {(j, ctx.mul(m, us)): c for (j, m), c in bs.terms.items()}
            track = ({(i, ctx.mul(m, us)): c for (i, m), c in bs.track.items()}
                     if self.track else None)
            for (j, m), c in bt.terms.items():
                k = (j, ctx.mul(m, ut))
                nc = (terms.get(k, 0) - c) % p
                if nc:
                    terms[k] = nc
                else:
                    terms.pop(k, None)
            if self.track:
                for (i, m), c in bt.track.items():
                    k = (i, ctx.mul(m, ut))
                    nv = (track.get(k, 0) - c) % p
                    if nv:
                        track[k] = nv
                    else:
                        track.pop(k, None)
        terms = self._reduce(terms, track)
        if terms:
            self._add_basis(terms, track)
        elif self.track and track:
            self.syzygy_tracks.append(track)

    # -- main loop ------------------------------------------------------------

    def run(self, stop_degree=None) -> None:
        while self.events:
            if stop_degree is not None and self.events[0][0] > stop_degree:
                break
            _, kind, _, payload = heapq.heappop(self.events)
            if kind == _KIND_PAIR:
                self._process_pair(payload)
            elif kind == _KIND_REL:
                track = {} if self.track else None
                terms = self._reduce(payload.data, track)
                if terms:
                    self._add_basis(terms, track)
                elif self.track and track:
                    self.syzygy_tracks.append(track)
            else:
                idx, g = payload
                track = {(idx, self.ctx.one): 1} if self.track else None
                terms = self._reduce(g.data, track)
                if terms:
                    self._add_basis(terms, track)
                    self.min_indices.append(idx)
                    self.min_elements.append(ModuleElement(self.ambient, terms))
                elif self.track and track:
                    self.syzygy_tracks.append(track)

    def express(self, v: ModuleElement):
        """Coefficients c with v = sum c_i gens_i modulo relations and the
        quotient ideal, or None if v is not in the submodule."""
        track = {}
        if self._reduce(v.data, track):
            return None
        p = self.p
        return {k: (p - c) % p for k, c in track.items()}


# -- public operations ------------------------------------------------------

class GroebnerBasis:
    """Auto-reduced, monic Groebner basis of a submodule of a free module."""

    def __init__(self, ambient: FreeModule, elements, over_quotient: bool):
        self.ambient = ambient
        self.elements = list(elements)
        self.over_quotient = over_quotient
        ring = ambient.ring
        self._index = DivisorIndex(
            ring.quotient_groebner() if over_quotient else ())
        for e in self.elements:
            (comp, lead), _ = e.lead_term()
            self._index.add(comp, lead, e.data, None)

    def lead_terms(self):
        return [e.lead_term()[0] for e in self.elements]

    def reduce(self, v: ModuleElement) -> ModuleElement:
        if v.ambient != self.ambient:
            raise RingMismatch("element in wrong ambient module")
        return ModuleElement(self.ambient, normal_form_terms(
            self.ambient, self._index, v.data, None))

    def contains(self, v: ModuleElement) -> bool:
        return self.reduce(v).is_zero()

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def groebner_basis(gens, ambient: FreeModule = None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by homogeneous gens.

    Over a quotient ring the ideal relations are adjoined implicitly and
    the `over_quotient` flag records it.
    """
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise AlgebraError("need an ambient module for empty input")
        ambient = gens[0].ambient
    comp = ModuleComputation(ambient, gens)
    comp.run()
    elements = _autoreduce(comp)
    return GroebnerBasis(ambient, elements, ambient.ring.is_quotient)


def _autoreduce(comp: ModuleComputation):
    """Keep basis elements with minimal leads, tail-reduce, sort."""
    ctx = comp.ctx
    entries = sorted(
        comp.basis,
        key=lambda b: (ctx.degree(b.lead) + comp.twists[b.comp], b.comp, -b.lead))
    # One index for all tails: b never divides its own tail, whose terms lie
    # below b's lead and only shrink under reduction, while a multiple of a
    # lead is never smaller than it in a degree-compatible order.
    index = DivisorIndex(comp.quot)
    kept = []
    for b in entries:
        redundant = any(
            c == b.comp and ctx.divides(l, b.lead) for (c, l, _) in kept)
        if not redundant:
            kept.append((b.comp, b.lead,
                         index.add(b.comp, b.lead, b.terms, None)))
    out = []
    for c, l, entry in kept:
        terms = normal_form_terms(comp.ambient, index, entry[1], None)
        # later reductions use the reduced tail
        entry[1] = tuple(terms.items())
        terms[(c, l)] = 1
        out.append(ModuleElement(comp.ambient, terms))
    return out


def normal_form(v: ModuleElement, gb: GroebnerBasis) -> ModuleElement:
    return gb.reduce(v)


def syzygies(gens, rels=(), ambient: FreeModule = None) -> GradedMatrix:
    """Columns generate {c : sum c_i gens_i in span(rels) + I*F}.

    This is the one "syzygies modulo relations" primitive.  Only gens are
    tracked; rels (and the quotient ideal I) are reduced untracked, so no
    syzygy involving only relations is ever emitted.  The columns generate
    the projection onto the gens coordinates of Syz(gens + rels), so a
    caller that wants a kernel modulo relations passes them as rels rather
    than tracking them in gens and discarding their coordinates.

    The result is a GradedMatrix into the free module on the degrees of
    gens (degree 0 for a zero generator).  Over the base polynomial ring
    with no rels, gens . result = 0 exactly.
    """
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise AlgebraError("need an ambient module for empty input")
        ambient = gens[0].ambient
    degrees = []
    for i, g in enumerate(gens):
        if not g.is_homogeneous():
            raise NotHomogeneous(f"generator {i} is not homogeneous")
        degrees.append(g.degree() if not g.is_zero() else 0)
    gmod = FreeModule(ambient.ring, degrees)
    comp = ModuleComputation(ambient, gens, rels=rels, track=True)
    comp.run()
    cols = []
    for tr in comp.syzygy_tracks:
        el = ModuleElement(gmod, dict(tr))
        if not el.is_zero():
            cols.append(el)
    # zero generators have trivial syzygy basis vectors
    for i, g in enumerate(gens):
        if g.is_zero():
            cols.append(gmod.basis_element(i))
    src = FreeModule(ambient.ring, tuple(c.degree() for c in cols))
    return GradedMatrix(src, gmod, cols, check=False)


def minimal_generators(gens, rels=(), ambient: FreeModule = None):
    """Subset of gens that minimally generates span(gens) modulo span(rels).

    Returns (indices, reduced elements); processed in degree order, so the
    reduced elements differ from the originals by earlier generators and
    relations only.
    """
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise AlgebraError("need an ambient module for empty input")
        ambient = gens[0].ambient
    degs = [g.degree() for g in gens if not g.is_zero()]
    stop = max(degs) if degs else None
    comp = ModuleComputation(ambient, gens, rels=rels)
    comp.run(stop_degree=stop)
    return comp.min_indices, comp.min_elements


def ideal_groebner(ring, polys):
    """Reduced monic GB of an ideal in the base ring, as (lead, terms) pairs
    with terms sorted descending."""
    fm = FreeModule(ring, (0,))
    gens = []
    for f in polys:
        f = ring.polynomial(f)
        if f.is_zero():
            continue
        if not f.is_homogeneous():
            raise NotHomogeneous("ideal generators must be homogeneous")
        gens.append(ModuleElement(fm, {(0, m): c for m, c in f.terms.items()}))
    gb = groebner_basis(gens, ambient=fm)
    out = []
    for e in gb.elements:
        terms = sorted(((m, c) for (j, m), c in e.data.items()), reverse=True)
        out.append((terms[0][0], terms))
    return tuple(out)
