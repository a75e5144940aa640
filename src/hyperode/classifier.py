"""Singularity fingerprints and the class-candidate table.

A reduced invariant is summarized by the degree of its numerator and the
multiplicity multiset of its denominator roots. The admissible
fingerprints for each hypergeometric family form a short table given in
star notation; a starred entry may shrink together with the numerator
degree (a singular point weakening or vanishing under a fractional
linear change of variables), while a "<=" numerator bound may shrink on
its own. Expanding that notation mechanically yields 14 plain cases for
the Gauss family, 13 for the confluent family and 9 for the limit
family.
"""

from functools import lru_cache

from .exactalg import factor_rational_roots, squarefree_decomposition
from .values import Value, setfield


class SingularityProfile(Value):
    __slots__ = (
        "numerator_degree",
        "denominator_signature",     # multiplicities, descending
        "finite_points",             # ((location, multiplicity), ...)
        "point_at_infinity_order",   # denominator minus numerator degree
        "has_irrational_points",
    )

    def __init__(self, numerator_degree, denominator_signature,
                 finite_points, point_at_infinity_order,
                 has_irrational_points):
        setfield(self, "numerator_degree", numerator_degree)
        setfield(self, "denominator_signature", denominator_signature)
        setfield(self, "finite_points", finite_points)
        setfield(self, "point_at_infinity_order", point_at_infinity_order)
        setfield(self, "has_irrational_points", has_irrational_points)


class ClassCandidate(Value):
    __slots__ = (
        "class_kind",                # "2F1", "1F1" or "0F1"
        "matched_case",              # (p, (q1, q2, ...))
    )

    def __init__(self, class_kind, matched_case):
        setfield(self, "class_kind", class_kind)
        setfield(self, "matched_case", matched_case)


# rows: (p bound, p may drop freely, p drop may be tied to starred q's,
#        ((q, starred), ...))
_TABLE1_ROWS = {
    "2F1": (
        (2, True, True, ((2, True), (2, True), (2, True))),
        (2, True, True, ((2, True), (2, True))),
    ),
    "1F1": (
        (2, False, True, ((2, True), (4, False))),
        (2, True, False, ((6, False),)),
        (2, True, False, ((4, False),)),
        (2, False, True, ((2, True),)),
        (2, False, False, ((0, False),)),
    ),
    "0F1": (
        (1, False, True, ((2, True), (3, False))),
        (1, True, False, ((5, False),)),
        (1, True, False, ((3, False),)),
        (1, False, True, ((2, True),)),
        (1, False, False, ((0, False),)),
    ),
}


def _distributions(total, caps):
    """All ways to split `total` over slots with per-slot caps."""
    if not caps:
        if total == 0:
            yield ()
        return
    head = caps[0]
    for d in range(min(total, head) + 1):
        for rest in _distributions(total - d, caps[1:]):
            yield (d,) + rest


def _expand_row(p_bound, p_le, p_star, qs):
    starred_idx = [i for i, (_, s) in enumerate(qs) if s]
    base = [q for q, _ in qs]
    out = []
    seen = set()
    free_drops = range(p_bound + 1) if p_le else (0,)
    for u in free_drops:
        tied_drops = range(p_bound - u + 1) if p_star else (0,)
        for t in tied_drops:
            caps = [base[i] for i in starred_idx]
            for dist in _distributions(t, caps):
                qs_new = list(base)
                for slot, d in zip(starred_idx, dist):
                    qs_new[slot] = base[slot] - d
                symbol = (p_bound - u - t,
                          tuple(sorted(qs_new, reverse=True)))
                if symbol not in seen:
                    seen.add(symbol)
                    out.append(symbol)
    return out


@lru_cache(maxsize=1)
def expand_table1():
    """Explicit case inventories per class, from the star notation."""
    return {kind: tuple(symbol for row in rows for symbol in _expand_row(*row))
            for kind, rows in _TABLE1_ROWS.items()}


def profile(i0):
    """Singularity fingerprint of a reduced invariant."""
    num_deg = i0.num.degree
    den = i0.den
    points = []
    signature = []
    irrational = False
    if den.degree > 0:
        _, roots, rem = factor_rational_roots(den)
        for loc, mult in roots.items():
            points.append((loc, mult))
        signature.extend(roots.values())
        if rem.degree > 0:
            irrational = True
            for piece, mult in squarefree_decomposition(rem):
                signature.extend([mult] * piece.degree)
    points.sort(key=lambda pm: (pm[0], pm[1]))
    return SingularityProfile(
        numerator_degree=num_deg,
        denominator_signature=tuple(sorted(signature, reverse=True)),
        finite_points=tuple(points),
        point_at_infinity_order=den.degree - num_deg,
        has_irrational_points=irrational,
    )


def classify(pr):
    """Class candidates whose expanded case matches the fingerprint.

    All classes are scanned in the order 2F1, 1F1, 0F1 and at most one
    candidate per class is reported. Zero entries in a case symbol
    stand for singular points that vanished entirely and are dropped
    before comparing. An exact match on the numerator degree is
    preferred; failing that, a case with the same pole signature but a
    larger numerator degree is accepted, because a numerator root
    sitting at the image of infinity lowers the degree without
    weakening any pole. Irrational singular points do not block
    matching; they are carried on the profile for the caller to
    surface as a diagnostic.
    """
    sig = tuple(sorted(pr.denominator_signature, reverse=True))
    p = pr.numerator_degree
    out = []
    table = expand_table1()
    for kind in ("2F1", "1F1", "0F1"):
        exact = weak = None
        for symbol in table[kind]:
            cp, cqs = symbol
            effective = tuple(sorted((q for q in cqs if q > 0),
                                     reverse=True))
            if effective != sig:
                continue
            if cp == p:
                exact = symbol
                break
            if weak is None and 0 <= p < cp:
                weak = symbol
        chosen = exact if exact is not None else weak
        if chosen is not None:
            out.append(ClassCandidate(kind, chosen))
    return out
