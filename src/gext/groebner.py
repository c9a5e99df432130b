"""Buchberger's algorithm for submodules of graded free modules.

Two kinds of run share one reducer.  Buchberger runs
(`ModuleComputation`) give Groebner bases, minimal generators, the
syzygies of `generators_and_syzygies` and membership certificates;
signature runs (`SignatureRun`) give `syzygies`.

A divisor is one entry [lead, tail, track, sig] of a `DivisorIndex`
(component -> entries): a monic element with lead term (comp, lead), its
other terms, its track (None when nothing is tracked) and its signature
(None outside a signature run).  The tail is one flat tuple
(off_1, mono_1, coeff_1, off_2, ...) of the terms below the lead, read
three at a time (`it = iter(tail); zip(it, it, it)`), in descending order
except in a signature run, which top-reduces; the track is the flat
tuple (gen_1, mono_1, coeff_1, ...) of the same shape, or None.  A flat
tuple holds a term in three slots, where a term ((off, mono), coeff)
would take two more tuples.  A tail term at offset off stands at
component comp + off: an entry does not depend on the component it is
filed under, so one entry serves every component that holds the same
element shifted, the quotient divisors of every component
(`Ring.quotient_groebner`) and the blocks of `block_copies` alike.  The
reducer adds the component back, one add per tail term; the tail
builders (`ModuleComputation._add_basis`, `SignatureRun._add`, through
`_flat`) subtract it, and `_autoreduce` and `GroebnerBasis.__iter__`
convert at the boundary.  That entry is the
only record of a basis element: neither the engine nor a finished
`GroebnerBasis` keeps another list of its basis, and iterating over a
`GroebnerBasis` builds its elements from their entries.  `_flat` is the
one writer of the tails and tracks a run stores, and of a tracked run's
`reductions`; it stores one int object per monomial value and per
coefficient value, taken from two tables (value -> object) that each run
owns and drops when it ends.  A run's terms repeat few values, so its
entries share their monomials and coefficients rather than each holding
copies; no table outlives its run.

Every normal form is computed by one kernel, `normal_form_terms`, which
reduces each term by the first entry of its component whose lead divides
it (in a signature run, the first that reduces it regularly, below, and
only until the lead is irreducible: a signature run top-reduces).  It
tests divisibility and forms products on the packed monomials inline,
with the guard mask of `monomial`, rather than through `MonomialContext`
calls; so do `_process_pair` and `SignatureRun`.
Its callers are the two runs, `GroebnerBasis.reduce` (hence
`normal_form`), `_autoreduce` (tails of the elements a run added) and,
through `Ring.reduce_terms` and `ModuleElement.reduced`, the canonical
forms of quotient-ring elements.

Each component's entries begin with *fixed* divisors, which carry no
track: first the quotient divisors GB(I) e_comp of R = S/I, one list
built once per ring, then the elements of the Groebner basis of the
relations (the ambient submodule the computation works modulo), entered
once, up front.  The engine forms no S-pair among fixed entries: they
already form a Groebner basis, so by Buchberger's criterion those pairs
reduce to zero.  Pairs are formed only between each new element and the
fixed entries, and among new elements.  The finished basis does not redo
the fixed entries either: `_autoreduce` passes the relation entries
through as they came, dropping only those whose lead a new lead divides,
and sorts and tail-reduces the new elements alone.  Those tails are the
only entries ever changed after they are built (by `_autoreduce`, before
it returns), so fixed entries are shared between indexes.

Component lists are shared too, copy-on-write, and only `DivisorIndex`
copies one: a component no divisor was added to holds the ring's
quotient list itself; a run's index, the blocks of `block_copies` and a
component of `_autoreduce`'s basis where no new element lands hold the
relation basis's own lists; `DivisorIndex.add` copies a list the first
time it appends to it.  So no list that another index or the ring holds
is ever written to.

Schreyer leads (Buchberger runs).  Number the entries in insertion
order, fixed entries first, and give entry b the unit e_b of a free
module E; E -> F sends e_b to b, and its kernel Syz(G) holds the
syzygies of the final basis G.  The Schreyer order on E compares m e_a
and m' e_b by the terms m lead(a) and m' lead(b), the newer entry
winning a tie.  A pair of entries h and n, n the newer, with
L = lcm(lead h, lead n), stands for the syzygy of leads
p(h, n) = (L / lead n) e_n - (L / lead h) e_h, whose Schreyer lead is
(L / lead n) e_n: the multiplier of n is read off L.  Pairs are taken
by degree (of L, with its twist); within one, by n, then by L, which is
the Schreyer order on each e_n.

Two criteria drop pairs, in tracked and untracked runs alike.  The
product criterion drops a pair with coprime leads against a quotient
divisor q e_comp: S(s, q e_comp) = q * tail(s) - tail(q) * s is a standard
representation, as q * tail(s) reduces to zero by the quotient divisors of
every component, and the syzygy it stands for, q * track(s), is zero over
R = S/I, so this holds in tracked runs too.  The Schreyer-lead criterion
(Moeller, Mora and Traverso): every pair reduced, and every pair the
product criterion drops, records its L on n; a pair is skipped unreduced
when its L is a multiple of one already recorded on n, that is when its
Schreyer lead is a multiple of a recorded one.  One pair per lcm, the F
criterion of Gebauer and Moeller, is the case of equal multiples.  A
pair between two fixed entries needs no processing: it reduces to zero
by the fixed entries alone, and its syzygy projects to zero on the
tracked coordinates.

Why this is enough.  (1) Buchberger's criterion in Moeller's form: G is a
Groebner basis if some generating set of the syzygies of its leads lifts,
each element s (homogeneous, of image term T) to a syzygy of G that is s
plus terms of image below T; the lifts then generate Syz(G) (Moeller
1988; for the pairs, Schreyer's theorem, Eisenbud Thm 15.10), and a lift
has the Schreyer lead of s.  (2) The p(h, n) generate the syzygies of the
leads.  A reduced pair lifts, through its reduction to zero or to a new
element; so do a product pair (its Koszul syzygy) and a pair of fixed
entries (they form a Groebner basis).  (3) Each skipped p lies in the
span of lifting ones, by induction along the well-order on the pairs by
(L, n), pairs taken before pairs skipped and then in the order they were
taken.  When the skipping record on n came from p' = p(h', n), with lead
dividing that of p(h, n), then p(h, n) less the matching multiple of p'
has no e_n term and all its terms of image L: a syzygy of the leads of
entries older than n, so a combination of pairs of such entries with lcm
dividing L, all earlier in the order; p' itself was reduced or dropped
by the product criterion, so it lifts.  (4) The tracks map e_b to the
track of b, zero for a fixed entry.  On a lift this gives the syzygy a
reduced pair emitted, or zero when it made a new element; zero for a
product pair (over R) and for fixed pairs.  Every syzygy c of the
kept elements modulo the fixed entries is such an image, of sum
c_k e_{b_k}, where entry b_k is the k-th kept element, of track k.  So
the emitted columns generate the syzygies modulo the relations.

Generators enter a Buchberger run by one intake (`add_minimal`), in
(degree, index) order; the heap holds only S-pairs.  A generator of
degree d is first reduced against the basis so far: a zero remainder
proves it redundant.  Only a nonzero remainder makes the engine process
the pairs of degree <= d; reduced again if that grew the basis, it is
kept if still nonzero, the k-th kept element tracked as k.  A remainder
fully reduced against a basis complete through degree d is unique, so
the basis grows as it would if each generator were inserted after the
pairs up to its degree.  Pairs above the last kept generator wait until
`run` asks for them: `groebner_basis`, `generators_and_syzygies` and
`express_in_generators` call it after the intake, `minimal_generators`
does not.  A tracked run also keeps the track of each kept element's
own reduction, which writes it as its generator plus earlier kept
elements: `express_in_generators` substitutes these to turn coordinates
over the kept elements into coordinates over the generators.

Pairs are queued only when a run can reach them.  A new element n waits
with its degree and the number of entries before it in its component;
a run up to degree D first queues the pairs of every waiting element of
degree below D, in insertion order, and again after each pair it takes.
No earlier lead divides n's lead, as n is a normal form, so each pair of
n lies above n's degree: it is on the heap before the run can take it,
and n's product-criterion records are made before any pair of n is
taken.  Keys tie on (degree, n, lcm) only among n's own pairs, queued
together in partner order; so the pairs taken, and their order, are
those of queueing every pair as n is added.  An intake whose run ends
at its last generator never builds the pairs of that degree.

Signature runs (`syzygies`; Gao, Volny and Wang, Math. Comp. 85 (2016);
Eder and Faugere, J. Symb. Comp. 80 (2017)).  Let E have a unit e_j per
generator g_j, phi: E -> F send e_j to g_j, and Syz be the x in E with
phi(x) in the span of the fixed entries, read over S (so I E lies in
it).  Every new element b is phi(u_b) modulo the fixed entries for a
track u_b, and its signature sig(b) is the lead term of u_b in E's own
order (`FreeModule.term_key`).  K is a Groebner basis of syzygies in hand
(`known`, empty when none is given), in that same order; the divisor
leads of K, quotient divisors included, are the first syzygy leads.
Fixed entries have no signature and reduce freely.
- Jobs are taken in increasing signature order, which is still degree
  by degree: each generator g_j, of signature e_j, and J-pairs.  The
  J-pair of a new element b and another entry h of its lead's component,
  with L = lcm(lead b, lead h), is (L / lead b) b when h is fixed, and
  otherwise whichever of (L / lead b) b and (L / lead h) h has the larger
  signature; there is none when the two are equal.
- Syzygy criterion: a job whose signature is a multiple of a syzygy lead
  is dropped, when it is queued and again when it is taken.
- One job per signature: the one of smallest lead is taken and the
  others are dropped.  Cover criterion: a J-pair t b of signature T is
  dropped when an element b' has sig(b') | T and (T / sig b') lead(b')
  below t lead(b).
- Regular top-reduction: an element with a signature reduces a term only
  when its signature times the multiplier lies below the signature being
  reduced (`normal_form_terms`), so reduction keeps the signature.  Only
  the lead is reduced: the reduction stops at the first lead that no
  divisor reduces regularly, and the terms below it stay as they are.
  The proof below reads leads only.
- A reduction to zero (which cancels every term, so its track is a
  syzygy) emits its track as a column, and its signature joins the
  syzygy leads.  A nonzero top-reduced element is dropped when an
  element divides its lead with a multiple of the same signature (it is
  singular); this is tested only after every divisor was tried for a
  regular reduction, for an element dropped while a regular divisor
  remained could have reduced to zero, and its column would be lost.
  Otherwise it joins as a new element.
Pairs with a quotient divisor need no product criterion here: when the
leads are coprime, the signature is a multiple of a quotient lead of E.

Why the signature run is enough.  Let m(T) be the least lead of phi(x)
over the x in E with lead T, and call T covered when an element b has
sig(b) | T and (T / sig b) lead(b) = m(T).  Let H be the monomial module
of the final syzygy leads; H lies in in(Syz), as each is the lead of K
or of a column.  Claim: every term T outside H lies outside in(Syz) and
is covered.  By induction on T: (1) below T, the claim makes every x
with lead T' < T and phi(x) nonzero top-reducible by a fixed entry or a
multiple of an element of signature at most T' (subtract a syzygy with
lead T' when T' is in H, else the multiple of the covering element).
(2) Take T outside H, e_j | T.  Generator j made an element, as e_j is
outside H and nothing else has that signature; of the b with sig(b) | T,
take one with least lambda = (T / sig b) lead(b).  If lambda > m(T), or
T lies in in(Syz), apply (1) to the difference of (T / sig b) b and an x
of lead T with lead m(T) (or a syzygy of lead T): an h reduces lambda
with a multiple of signature below T.  The J-pair of b and h then has a
signature T' dividing T, on b's side, and its lcm L' divides lambda; T'
is outside H, so the pair was queued.  The job taken at T' is a multiple
of an element b'' with lead at most L' (if below, b'' is the b' sought).
If equal to L', it was covered, or h (whose signature is smaller, so it
was there) top-reduced it regularly to a nonzero element with lead
below L' (a zero one would put T' in H), kept, or dropped as singular.
Either way an element b' has sig(b') | T' and (T' / sig b') lead(b') <
L', which times T / T' is below lambda, against the choice of b.  So in(Syz) = H,
and the columns with K form a Groebner basis of Syz.  Each column's lead
is its signature, as regular reduction never reaches it; it lies outside
in(K) and divides no other column's lead, as it was tested against every
syzygy lead found before it and later signatures are larger.

Determinism: a Buchberger run selects pairs by (degree of the lcm term,
newer entry, lcm term, insertion sequence); a signature run selects jobs
by (degree, signature, lead, insertion sequence), integers all.  All
containers iterate in insertion order.
"""

from __future__ import annotations

import heapq
import itertools

from .free import FreeModule, GradedMatrix, ModuleElement
from .monomial import ExponentOverflow
from .ring import AlgebraError, NotHomogeneous, RingMismatch, field_inverse

INF = float("inf")
MINUS_INF = float("-inf")


# -- the normal-form kernel ---------------------------------------------------

class DivisorIndex(dict):
    """comp -> divisor entries [lead, tail, track, sig] for
    `normal_form_terms`, the tail and track flat tuples, tail terms at
    offsets from comp (module docstring): the quotient divisors GB(I)
    e_comp first (filled in on first lookup, with no track), then the
    divisors appended with `add`, in insertion order.

    Component lists are shared copy-on-write, and this class alone copies
    one.  A missing component stores the ring's one list of quotient
    divisors (`Ring.quotient_groebner`) itself, and a list assigned from
    outside (`_copy_index`, `block_copies`, `_autoreduce`) is taken as it
    is.  `add` copies a component's list the first time it appends to it;
    `owned` holds the components whose lists it has made, so no list that
    another index (or the ring) holds is ever written to."""

    __slots__ = ("ring", "quotient", "nq", "owned")

    def __init__(self, ring):
        super().__init__()
        self.ring = ring
        self.quotient = ring.quotient_groebner()
        self.nq = len(self.quotient)   # quotient divisors per comp
        self.owned: set = set()

    def __missing__(self, comp):
        entries = self[comp] = self.quotient
        return entries

    def add(self, comp, lead, tail, track, sig=None):
        """Append the monic divisor (comp, lead) + tail, where tail is the
        flat tuple (offset from comp, mono, coeff, ...); returns its
        entry.  The first append to a component copies its list."""
        entry = [lead, tail, track, sig]
        if comp in self.owned:
            self[comp].append(entry)
        else:
            self[comp] = self[comp] + [entry]
            self.owned.add(comp)
        return entry


def normal_form_terms(ambient: FreeModule, index: DivisorIndex, terms,
                      track, sig=None) -> dict:
    """Normal form of a term dict {(comp, mono): coeff} of `ambient`: full,
    its terms in descending order, when sig is None; else top-reduced.

    Each term is reduced by the first entry of index[comp] whose lead
    divides it; the entry's tail, a flat tuple, holds its terms at comp
    plus their offsets.  When `track` is a dict, that divisor's track (a
    flat tuple too) times the multiplier is subtracted from it in place;
    None tracks nothing.

    `sig` is the signature (comp, mono) of the element in a signature run
    (module docstring), None elsewhere.  A divisor with a signature then
    reduces a term only regularly: when its signature times the
    multiplier lies below `sig`.  A divisor without one (a fixed entry,
    or any entry outside a signature run) reduces freely, and no other
    test is made.  With a signature the reduction stops at the first term
    that no entry reduces, after every entry was tried: that term comes
    first, and the terms below it are returned as they stand, in no
    particular order.
    """
    ring = ambient.ring
    ctx = ring.ctx
    guards, shift = ctx.guards, ctx.degshift
    p = ring.p
    twists = ambient.twists
    coeffs = dict(terms)
    heap = [(-((m >> shift) + twists[j]), j, -m) for (j, m) in coeffs]
    heapq.heapify(heap)
    sc, sm = sig or (None, None)
    out: dict = {}
    while heap:
        _, comp, negm = heapq.heappop(heap)
        mono = -negm
        c = coeffs.pop((comp, mono), 0)
        if not c:
            continue
        for lead, tail, dtrack, dsig in index[comp]:
            if not (lead - mono) & guards:
                if dsig is None:
                    break
                # same degree as sig: compare (-comp, mono) of the two
                dc, dm = dsig
                if dc > sc or dc == sc and dm + mono - lead < sm:
                    break
        else:
            out[(comp, mono)] = c
            if sig is not None:     # top-reduced: keep the other terms
                out.update(coeffs)
                return out
            continue
        u = mono - lead     # gm times mono / lead is gm + u
        it = iter(tail)
        for gj, gm, gc in zip(it, it, it):
            gj += comp
            m = gm + u
            if m & guards:
                raise ExponentOverflow("exponent overflow in product")
            k = (gj, m)
            old = coeffs.get(k, 0)
            nc = (old - c * gc) % p
            if nc:
                if not old:
                    heapq.heappush(heap, (-((m >> shift) + twists[gj]), gj, -m))
                coeffs[k] = nc
            elif old:
                del coeffs[k]
        if track is not None and dtrack:
            it = iter(dtrack)
            for gi, gm, gc in zip(it, it, it):
                m = gm + u
                if m & guards:
                    raise ExponentOverflow("exponent overflow in product")
                k = (gi, m)
                nv = (track.get(k, 0) - c * gc) % p
                if nv:
                    track[k] = nv
                else:
                    track.pop(k, None)
    return out


# -- the engine -----------------------------------------------------------------

def _graded(gens, ambient):
    """(ambient, degrees, order): the ambient module of gens (the first
    one's when None), the degree of each of gens (None for a zero one),
    and the nonzero gens as (degree, index, generator) in that order.
    Each generator is checked to lie in it and to be homogeneous; its
    degree is read here, once."""
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise AlgebraError("need an ambient module for empty input")
        ambient = gens[0].ambient
    degrees, order = [], []
    for idx, g in enumerate(gens):
        if g.ambient != ambient:
            raise RingMismatch(f"generator {idx} in wrong ambient module")
        d = g.degree()
        if d is not None:
            order.append((d, idx, g))
        elif g.data:
            raise NotHomogeneous(f"generator {idx} is not homogeneous")
        degrees.append(d)
    order.sort()
    return ambient, degrees, order


def _computation(gens, rels, ambient, track=False):
    """(degrees, order, run): `_graded`'s degrees and order, and an engine
    run modulo rels over the gens' ambient module."""
    ambient, degrees, order = _graded(gens, ambient)
    return degrees, order, ModuleComputation(ambient, rels=rels, track=track)


def _copy_index(fixed: DivisorIndex) -> DivisorIndex:
    """A new index that holds the component lists of `fixed` (those of a
    relation basis) themselves, for a run to append its own to: `add`
    copies a list before the run's first element lands in it."""
    index = DivisorIndex(fixed.ring)
    index.update(fixed)
    return index


def _flat(run, items, comp, inv) -> tuple:
    """The flat tuple (j - comp, mono, coeff * inv, ...) of term items
    ((j, mono), coeff): an entry's tail, comp its component, or its
    track, comp 0, for `run` (a `ModuleComputation` or `SignatureRun`).

    The one writer of the tails, tracks and `reductions` a run stores.
    Each monomial and each coefficient is stored as the object the run's
    own table (`_monos`, `_coeffs`: value -> object) holds for its value,
    so the many equal terms of a run share their int objects.  The tables
    go with the run; a returned basis keeps only the objects its entries
    hold."""
    p = run.p
    mono = run._monos.setdefault
    coeff = run._coeffs.setdefault
    out = []
    for (j, m), c in items:
        c = c * inv % p
        out += (j - comp, mono(m, m), coeff(c, c))
    return tuple(out)


def _multiples(ctx, flat, u, comp=0):
    """The terms ((comp + i, mono), coeff) of a flat tuple (i, mono,
    coeff, ...) times the monomial u + one, where u is a difference of
    packed monomials such as lcm - lead: comp is an entry's component for
    its tail, 0 for a track."""
    guards = ctx.guards
    it = iter(flat)
    for i, m, c in zip(it, it, it):
        m += u
        if m & guards:
            raise ExponentOverflow("exponent overflow in product")
        yield (comp + i, m), c


class ModuleComputation:
    """Degree-by-degree Buchberger over one ambient free module, modulo
    rels: a Groebner basis of the relations (an iterable of them is turned
    into one by `relation_basis`), whose elements are fixed entries of
    `_index` after the quotient divisors, with no track.

    Generators enter through `add_minimal`, the intake of the module
    docstring.  The heap `events` holds only S-pairs: two new elements, or
    a new element and a fixed entry, queued by `_queue` once a run can
    reach them.  In a tracked run the track of each pair that reduces to
    zero is a syzygy, kept in `syzygy_tracks`, and `reductions[k]` is the
    track of the k-th kept generator's intake reduction.  `_monos` and
    `_coeffs` are the run's tables for `_flat`, freed with it.
    """

    def __init__(self, ambient: FreeModule, rels=(), track=False):
        self.ambient = ambient
        ring = ambient.ring
        self.ctx = ring.ctx
        self.p = ring.p
        self.twists = ambient.twists
        self.track = track
        # the fixed entries alone, and the index the run appends to
        self._fixed = relation_basis(rels, ambient)._index
        self._index = _copy_index(self._fixed)
        self.events: list = []
        self._seq = itertools.count()
        # per new element, in insertion order: the Schreyer leads recorded
        # on it, as the terms lcm of their pairs (module docstring)
        self._leads: list[list] = []
        # new elements whose pairs are not queued yet, in insertion order:
        # (degree, n, comp, position in the component's entries)
        self._pending: list = []
        self.syzygy_tracks: list[dict] = []
        self.reductions: list[tuple] = []
        # value -> the one object `_flat` stores for it
        self._monos: dict = {}
        self._coeffs: dict = {}

    def add_minimal(self, order):
        """The intake of the generators in `order` (from `_computation`):
        (indices, reduced elements) of the kept ones, the k-th tracked as
        k.  In a tracked run the k-th is gens[indices[k]] plus
        reductions[k], a flat track over the kept elements before it.
        Pairs above the last one kept stay pending."""
        ambient, index = self.ambient, self._index
        indices, elements = [], []
        for d, idx, g in order:
            track = {} if self.track else None
            terms = normal_form_terms(ambient, index, g.data, track)
            if terms:
                size = len(self._leads)
                self.run(d)
                if len(self._leads) > size:   # else terms is still reduced
                    terms = normal_form_terms(ambient, index, terms, track)
            if terms:
                if track is not None:
                    self.reductions.append(_flat(self, track.items(), 0, 1))
                    track = {(len(indices), self.ctx.one): 1}
                self._add_basis(terms, track)
                indices.append(idx)
                elements.append(ModuleElement(ambient, terms))
        return indices, elements

    # -- basis growth -------------------------------------------------------

    def _add_basis(self, terms, track):
        """Add a normal form, its first term, the greatest, the lead; its
        pairs wait in `_pending` until a run can reach them (`_queue`)."""
        items = iter(terms.items())
        (comp, lead), lc = next(items)
        inv = field_inverse(lc, self.p)
        if track is not None:
            track = _flat(self, track.items(), 0, inv)
        self._index.add(comp, lead, _flat(self, items, comp, inv), track)
        n = len(self._leads)
        self._leads.append([])
        self._pending.append((self.ctx.degree(lead) + self.twists[comp], n,
                              comp, len(self._index[comp]) - 1))

    def _queue(self, stop_degree):
        """Queue the pairs of the pending elements of degree < stop_degree,
        in insertion order, each with the entries before it in its
        component (the module docstring says why no pair a run can take is
        missed).  Elements are added in nondecreasing degree, so these are
        a prefix of `_pending`."""
        pending = self._pending
        if not pending or pending[0][0] >= stop_degree:
            return
        ctx = self.ctx
        degree = ctx.degree
        nq = self._index.nq
        k = 0
        while k < len(pending) and pending[k][0] < stop_degree:
            _, n, comp, pos = pending[k]
            k += 1
            entries = self._index[comp]
            new = entries[pos]
            lead = new[0]
            leads = self._leads[n]
            nfixed = len(self._fixed[comp])
            twist = self.twists[comp]
            # A fixed partner is t, as it has no track.  A pair the product
            # criterion drops (a quotient divisor with a coprime lead: the
            # lcm has the degree of the product) records its Schreyer lead.
            for i, old in enumerate(entries[:pos]):
                lcm = ctx.lcm(lead, old[0])
                d = degree(lcm)
                if i < nq and d == degree(lead) + degree(old[0]):
                    leads.append(lcm)
                    continue
                heapq.heappush(self.events, (
                    d + twist, n, lcm, next(self._seq),
                    (new, old, comp, lcm, n) if i < nfixed
                    else (old, new, comp, lcm, n)))
        del pending[:k]

    def _subtract(self, target, flat, u, comp=0):
        """target -= (u + one) * flat in place, flat a flat tuple of terms
        at comp + i."""
        p = self.p
        for k, c in _multiples(self.ctx, flat, u, comp):
            nv = (target.get(k, 0) - c) % p
            if nv:
                target[k] = nv
            else:
                target.pop(k, None)

    def _process_pair(self, s, t, comp, lcm, n):
        guards = self.ctx.guards
        leads = self._leads[n]
        for recorded in leads:
            if not (recorded - lcm) & guards:
                return
        leads.append(lcm)
        # the monic leads cancel: S = (lcm / lead_s) tail_s -
        # (lcm / lead_t) tail_t, and the tracks combine the same way (a
        # fixed entry t has none)
        us, ut = lcm - s[0], lcm - t[0]
        terms = dict(_multiples(self.ctx, s[1], us, comp))
        self._subtract(terms, t[1], ut, comp)
        track = None
        if self.track:
            track = dict(_multiples(self.ctx, s[2], us))
            if t[2]:
                self._subtract(track, t[2], ut)
        # a nonzero normal form joins the basis; else the track is a syzygy
        terms = normal_form_terms(self.ambient, self._index, terms, track)
        if terms:
            self._add_basis(terms, track)
        elif track:
            self.syzygy_tracks.append(track)

    def run(self, stop_degree=INF) -> None:
        """Process the pairs of degree <= stop_degree; within a degree by
        newer entry, then by lcm.  Pairs are queued first, and again after
        each pair taken, for the elements below stop_degree."""
        events = self.events
        self._queue(stop_degree)
        while events and events[0][0] <= stop_degree:
            self._process_pair(*heapq.heappop(events)[4])
            self._queue(stop_degree)


class SignatureRun:
    """The signature run of `syzygies` (module docstring): the syzygies of
    generators in `ambient` modulo its fixed entries (the quotient
    divisors and the basis of rels), given a GroebnerBasis `known` of
    syzygies already in hand.  Signatures are terms (comp, mono) of E =
    known.ambient, the generators' free module, compared in E's order.

    The heap `events` holds J-pairs and generators by (degree, signature,
    lead, sequence), all integers.  A reduction to zero appends its track
    to `syzygy_tracks` and its signature to the syzygy leads: `_syz` keeps
    those column signatures alone, as `_is_syzygy` reads the divisor leads
    of `known` from its entries in place.  Like a `ModuleComputation`, the
    run owns the tables through which `_flat` stores one object per
    monomial and coefficient value; they are freed with the run."""

    def __init__(self, ambient: FreeModule, rels, known: GroebnerBasis):
        self.ambient = ambient
        ring = ambient.ring
        self.ctx = ring.ctx
        self.p = ring.p
        self.twists = ambient.twists
        self._index = _copy_index(relation_basis(rels, ambient)._index)
        self._known = known
        self._syz: dict = {}      # E comp -> the columns' signature monos
        self._signed: dict = {}   # E comp -> (sig mono, comp, lead)
        self.events: list = []
        self._seq = itertools.count()
        self.syzygy_tracks: list[dict] = []
        # value -> the one object `_flat` stores for it
        self._monos: dict = {}
        self._coeffs: dict = {}

    def _is_syzygy(self, sc, sm) -> bool:
        """Is the signature a multiple of a syzygy lead: of a divisor lead
        of `known` (quotient divisors included), read from its entries in
        place, or of a column's signature?"""
        guards = self.ctx.guards
        for lead, _, _, _ in self._known._index[sc]:
            if not (lead - sm) & guards:
                return True
        for lead in self._syz.get(sc, ()):
            if not (lead - sm) & guards:
                return True
        return False

    def add(self, order):
        """Queue the generators in `order` (from `_graded`): generator j
        has signature (j, 1)."""
        one = self.ctx.one
        for d, idx, g in order:
            if not self._is_syzygy(idx, one):
                heapq.heappush(self.events, (d, -idx, one, 0, 0,
                                             next(self._seq), (None, idx, g)))

    def run(self) -> None:
        """Process the queued J-pairs in increasing signature order, each
        signature once, by the J-pair of smallest lead."""
        ambient, index, events = self.ambient, self._index, self.events
        ctx = self.ctx
        last = None
        while events:
            _, nsc, sm, _, lead, _, (entry, comp, u) = heapq.heappop(events)
            sig = (-nsc, sm)
            if sig == last:
                continue
            last = sig
            if self._is_syzygy(*sig):
                continue
            if entry is None:       # generator comp, u the generator
                terms, track = dict(u.data), {(comp, ctx.one): 1}
            elif self._covered(sig, comp, lead):
                continue
            else:                   # u times the element of the entry
                terms = {(comp, lead): 1}
                terms.update(_multiples(ctx, entry[1], u, comp))
                track = dict(_multiples(ctx, entry[2], u))
            terms = normal_form_terms(ambient, index, terms, track, sig)
            if not terms:
                self.syzygy_tracks.append(track)
                self._syz.setdefault(sig[0], []).append(sm)
            elif not self._singular(terms, sig):
                self._add(terms, track, sig)

    def _covered(self, sig, comp, lead) -> bool:
        """The cover criterion: some element's signature divides sig, and
        the same multiple of its lead lies below (comp, lead)."""
        sc, sm = sig
        guards = self.ctx.guards
        for esm, ec, elead in self._signed[sc]:
            if not (esm - sm) & guards and (
                    ec > comp or ec == comp and elead + sm - esm < lead):
                return True
        return False

    def _singular(self, terms, sig) -> bool:
        """Does an element divide the lead of terms, which no element
        reduces regularly, with a multiple of signature sig?"""
        comp, lead = next(iter(terms))
        sc, sm = sig
        guards = self.ctx.guards
        for elead, _, _, esig in self._index[comp]:
            if (esig is not None and esig[0] == sc
                    and not (elead - lead) & guards
                    and esig[1] + lead - elead == sm):
                return True
        return False

    def _add(self, terms, track, sig):
        """Add a regularly top-reduced element of signature sig, monic, and
        queue its J-pairs with the entries of its lead's component."""
        items = iter(terms.items())
        (comp, lead), lc = next(items)
        inv = field_inverse(lc, self.p)
        new = self._index.add(comp, lead, _flat(self, items, comp, inv),
                              _flat(self, track.items(), 0, inv), sig)
        sc, sm = sig
        self._signed.setdefault(sc, []).append((sm, comp, lead))
        ctx = self.ctx
        guards = ctx.guards
        twist = self.twists[comp]
        for old in self._index[comp][:-1]:
            olead, osig = old[0], old[3]
            lcm = ctx.lcm(lead, olead)
            # the J-pair is the multiple of larger signature; a fixed
            # entry has none
            job, jc, jm = (new, comp, lcm - lead), sc, sm + lcm - lead
            if osig is not None:
                oc, om = osig[0], osig[1] + lcm - olead
                if oc == jc and om == jm:
                    continue
                if oc < jc or oc == jc and om > jm:
                    job, jc, jm = (old, comp, lcm - olead), oc, om
            if jm & guards:
                raise ExponentOverflow("exponent overflow in product")
            if not self._is_syzygy(jc, jm):
                heapq.heappush(self.events, (
                    ctx.degree(lcm) + twist, -jc, jm, -comp, lcm,
                    next(self._seq), job))


# -- public operations ------------------------------------------------------

class GroebnerBasis:
    """Minimal, monic Groebner basis of a submodule of a free module, held
    as the divisor index `reduce` uses (built by `_autoreduce`): its
    elements are the entries past each component's quotient divisors, the
    relation basis the run was given first, as it came, then the elements
    the run added, tail-reduced.  Iterating over it builds them, component
    by component."""

    def __init__(self, ambient: FreeModule, index: DivisorIndex):
        self.ambient = ambient
        self._index = index
        # a component's divisor leads (a frozenset) -> the numerator of the
        # Hilbert series they cut out, filled by `gmod.hilbert_numerators`
        self.numerators: dict = {}

    def _entries(self):
        """(comp, entry) of each basis element, as a list: `reduce` may add
        components to the index while an iteration is under way."""
        nq = self._index.nq
        return [(comp, entry) for comp, entries in self._index.items()
                for entry in entries[nq:]]

    def __iter__(self):
        ctx = self.ambient.ring.ctx
        for comp, (lead, tail, _, _) in self._entries():
            terms = dict(_multiples(ctx, tail, 0, comp))
            terms[(comp, lead)] = 1
            yield ModuleElement(self.ambient, terms)

    def lead_terms(self):
        return [(comp, entry[0]) for comp, entry in self._entries()]

    def divisor_leads(self, comp):
        """The leads of component comp's divisors: the quotient divisors'
        first, then the basis elements'."""
        return [entry[0] for entry in self._index[comp]]

    def reduce(self, v: ModuleElement) -> ModuleElement:
        if v.ambient != self.ambient:
            raise RingMismatch("element in wrong ambient module")
        return ModuleElement(self.ambient, normal_form_terms(
            self.ambient, self._index, v.data, None))

    def contains(self, v: ModuleElement) -> bool:
        return self.reduce(v).is_zero()

    def block_copies(self, ambient: FreeModule, copies: int) -> "GroebnerBasis":
        """The basis of `copies` block-diagonal copies of this submodule in
        `ambient`, copy k on components k*rank .. k*rank + rank - 1.

        Valid without a Buchberger run when each block of ambient has this
        basis's twists shifted by one constant: pairs form only within a
        component, and the shift preserves the term order inside a block.
        An entry's tail is stored relative to its component, so each block
        holds this basis's own component lists: no entry or list is built.
        """
        nb = self.ambient.rank
        index = DivisorIndex(ambient.ring)
        for k in range(copies):
            off = k * nb
            for comp, entries in self._index.items():
                index[comp + off] = entries
        return GroebnerBasis(ambient, index)

    def over_base(self, ambient: FreeModule) -> "GroebnerBasis":
        """This basis of a submodule N of a free module over R = S/I, read
        in `ambient`, the free module over S with the same twists: the
        basis of N's preimage, N + I*F.  In each component, the quotient
        divisors GB(I) e_comp whose lead no element's lead divides, then
        this basis's elements, their entries shared.

        Valid without a Buchberger run: the run that built this basis
        disposed of every pair among its elements and the quotient
        divisors, which are its fixed entries, by the criteria that make
        them a Groebner basis over S (module docstring).  A dropped
        quotient divisor has a lead that an element's lead divides, and
        no element's lead is divisible by a quotient lead."""
        ctx = self.ambient.ring.ctx
        nq = self._index.nq
        index = DivisorIndex(ambient.ring)
        for comp in range(self.ambient.rank):
            entries = self._index[comp]
            own = entries[nq:]
            index[comp] = [q for q in entries[:nq]
                           if not any(ctx.divides(e[0], q[0]) for e in own)]
            index[comp] += own
        return GroebnerBasis(ambient, index)


def relation_basis(rels, ambient: FreeModule) -> GroebnerBasis:
    """rels as a Groebner basis in `ambient`: a GroebnerBasis is returned
    as it is, an iterable of relations is turned into one."""
    if isinstance(rels, GroebnerBasis):
        if rels.ambient != ambient:
            raise RingMismatch("relation basis in wrong ambient module")
        return rels
    rels = list(rels)
    if not rels:
        return GroebnerBasis(ambient, DivisorIndex(ambient.ring))
    return groebner_basis(rels, ambient=ambient)


def groebner_basis(gens, ambient: FreeModule = None, rels=()) -> GroebnerBasis:
    """Groebner basis of the submodule generated by homogeneous gens and
    the relations rels (a GroebnerBasis, or an iterable turned into one).

    Over a quotient ring the ideal relations are adjoined implicitly.
    """
    _, order, comp = _computation(gens, rels, ambient)
    comp.add_minimal(order)
    comp.run()
    return _autoreduce(comp)


def _autoreduce(comp: ModuleComputation) -> GroebnerBasis:
    """The finished basis of a run, on a new index.  In each component: the
    fixed relation entries as the run was given them, less those whose lead
    the lead of a new element divides, then the new elements in (degree,
    lead) order, tail-reduced.  A component where no new element lands
    keeps the fixed list itself.

    No new lead divides another lead of the run: each new element is a
    normal form modulo every entry before it, and they come in
    nondecreasing degree, so only the fixed entries need the test."""
    ctx = comp.ctx
    nq = comp._index.nq
    index = DivisorIndex(comp.ambient.ring)
    added = []
    for c, entries in comp._index.items():
        fixed = comp._fixed[c]
        new = sorted(entries[len(fixed):],
                     key=lambda e: (ctx.degree(e[0]), -e[0]))
        if new:
            leads = [e[0] for e in new]
            fixed = fixed[:nq] + [
                e for e in fixed[nq:]
                if not any(ctx.divides(lead, e[0]) for lead in leads)]
        index[c] = fixed
        added += [(c, index.add(c, lead, tail, None))
                  for lead, tail, _, _ in new]
    # One index for all tails: b never divides its own tail, whose terms lie
    # below b's lead and only shrink under reduction, while a multiple of a
    # lead is never smaller than it in a degree-compatible order.
    for c, entry in added:
        # later reductions use the reduced tail
        tail = normal_form_terms(comp.ambient, index,
                                 dict(_multiples(ctx, entry[1], 0, c)), None)
        entry[1] = _flat(comp, tail.items(), c, 1)
    return GroebnerBasis(comp.ambient, index)


def normal_form(v: ModuleElement, gb: GroebnerBasis) -> ModuleElement:
    return gb.reduce(v)


def syzygies(gens, rels=(), ambient: FreeModule = None,
             known=()) -> GradedMatrix:
    """Columns that, together with `known`, generate
    {c : sum c_i gens_i in span(rels) + I*F}.

    This is the one "syzygies modulo relations" primitive.  rels is a
    GroebnerBasis of the relations, or an iterable of them turned into one
    once, here.  Only gens are tracked; the basis of rels (and the quotient
    ideal I) enters the engine as fixed, untracked divisors, so no syzygy
    involving only relations is ever emitted.  The columns generate the
    projection onto the gens coordinates of Syz(gens + rels), so a caller
    that wants a kernel modulo relations passes them as rels rather than
    tracking them in gens and discarding their coordinates.

    `known` holds syzygies of gens modulo rels already in hand: a
    GroebnerBasis in a free module E with one component per generator
    (E's own term order is the signature order), or an iterable of
    elements of the gens' free module, turned into one.  The run is the
    signature run of the module docstring, with known's leads as its
    first syzygy leads.  Each column's lead is its signature: it lies
    outside in(known) and divides no other column's lead, and the columns
    with known form a Groebner basis of the syzygy module.

    The result is a GradedMatrix into the free module on the degrees of
    gens (degree 0 for a zero generator).  Over the base polynomial ring
    with no rels, gens . result = 0 exactly.

    No generator is held here past its job: once the run has queued them,
    its heap holds the only reference this function keeps, so a caller
    that passes gens without keeping them frees each when it is taken.
    """
    ambient, degrees, order = _graded(gens, ambient)
    gfree = FreeModule(ambient.ring,
                       tuple(0 if d is None else d for d in degrees))
    if not isinstance(known, GroebnerBasis):
        known = relation_basis(known, gfree)
    elif known.ambient.rank != len(degrees):
        raise RingMismatch("known syzygies in a module of the wrong rank")
    run = SignatureRun(ambient, rels, known)
    run.add(order)
    del gens, order     # each generator is freed once its job is taken
    run.run()
    return _syzygy_matrix(run, degrees)


def minimal_generators(gens, rels=(), ambient: FreeModule = None):
    """Subset of gens that minimally generates span(gens) modulo span(rels).

    rels is a GroebnerBasis of the relations, or an iterable of them turned
    into one once, here.  Returns (indices, reduced elements); processed in
    degree order, so the reduced elements differ from the originals by
    earlier generators and relations only.
    """
    _, order, comp = _computation(gens, rels, ambient)
    return comp.add_minimal(order)


def generators_and_syzygies(gens, rels=(), ambient: FreeModule = None):
    """(kept, syz): the reduced elements of minimal_generators(gens, rels)
    and syzygies(kept, rels), column for column, from one tracked run."""
    degrees, order, comp = _computation(gens, rels, ambient, track=True)
    indices, kept = comp.add_minimal(order)
    comp.run()
    return kept, _syzygy_matrix(comp, [degrees[i] for i in indices])


def _syzygy_matrix(comp: ModuleComputation, degrees) -> GradedMatrix:
    """The syzygy tracks of a finished tracked run, then a basis vector
    for each zero generator (degree None), as columns over the generators'
    degrees, 0 for a zero one.  Each column is homogeneous, so its degree
    is read off one term."""
    ring = comp.ambient.ring
    gmod = FreeModule(ring, tuple(0 if d is None else d for d in degrees))
    cols = [ModuleElement(gmod, tr) for tr in comp.syzygy_tracks]
    cols += [gmod.basis_element(i) for i, d in enumerate(degrees) if d is None]
    shift, twists = ring.ctx.degshift, gmod.twists
    src = FreeModule(ring, tuple((m >> shift) + twists[j] for j, m in (
        next(iter(c.data)) for c in cols)))
    return GradedMatrix(src, gmod, cols, check=False)


def express_in_generators(gens, ambient: FreeModule, elements, rels=()):
    """Coordinates of each element over gens, modulo span(rels) and the
    quotient ideal; rels is a GroebnerBasis, or an iterable of relations
    turned into one once.

    Returns one coefficient dict {(gen index, monomial): coeff} per
    element; raises if an element is not in the span.
    """
    _, order, comp = _computation(gens, rels, ambient, track=True)
    indices, _ = comp.add_minimal(order)
    comp.run()
    ctx, p = comp.ctx, comp.p
    # the k-th kept element is gens[indices[k]] plus reductions[k] over
    # those before it: substituted into a track, last first
    substitutions = [(k, r) for k, r in enumerate(comp.reductions) if r][::-1]
    out = []
    for v in elements:
        track = {}
        if normal_form_terms(comp.ambient, comp._index, v.data, track):
            raise AlgebraError("element not in the span of the generators")
        # v is -track over the kept elements
        for k, reduction in substitutions:
            for m, c in [(m, c) for (j, m), c in track.items() if j == k]:
                for key, rc in _multiples(ctx, reduction, m - ctx.one):
                    nv = (track.get(key, 0) + c * rc) % p
                    if nv:
                        track[key] = nv
                    else:
                        del track[key]
        out.append({(indices[k], m): (p - c) % p
                    for (k, m), c in track.items()})
    return out

