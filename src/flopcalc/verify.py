"""Named verification suites, one per dimension claim of the flop model.

Each suite recomputes a claim from scratch and returns a ``CheckResult``
carrying PASS/FAIL/UNDERDETERMINED plus the evidence used.  FAIL always
includes a concrete counterexample coordinate.  UNDERDETERMINED is reserved
for a decisive quantity the dimension chase genuinely cannot settle; it is
not a failure.  Suites are deterministic and idempotent: the report is a
pure function of (check id, n).
"""

import enum
import itertools
from collections import namedtuple

from . import flop, homalg, pbundle
from .bwb import shorten
from .pbundle import ModelVariety, Side, XLineBundle


class Status(str, enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNDERDETERMINED = "UNDERDETERMINED"


class CheckResult(namedtuple("CheckResult", "check_id n status evidence")):
    """One suite's verdict at one n; ``evidence`` defaults to a new empty dict."""

    __slots__ = ()

    def __new__(cls, check_id, n, status, evidence=None):
        if evidence is None:
            evidence = {}
        if status is Status.FAIL and "counterexample" not in evidence:
            raise ValueError("FAIL results must carry a counterexample")
        return tuple.__new__(cls, (check_id, n, status, evidence))


def _fail(check_id, n, counterexample, **extra):
    return CheckResult(
        check_id, n, Status.FAIL, {"counterexample": counterexample, **extra}
    )


def verify_lemma_1_3(n):
    """Picard transport: involution, fixed canonical class, and the section
    count of the cross class (1, -1) equal to n + 1."""
    pic = flop.phi_pullback(n)
    evidence = {"matrix": [list(r) for r in pic.rows]}
    if not pic.is_involution():
        return _fail("lemma-1-3", n, {"matrix_squared": pic.compose(pic).rows}, **evidence)
    variety = ModelVariety(n)
    omega = pbundle.canonical_class(variety).coords()
    if pic.apply(*omega) != omega:
        return _fail("lemma-1-3", n, {"canonical_image": pic.apply(*omega)}, **evidence)
    cross = XLineBundle(variety, 1, -1)
    h0 = pbundle.cohomology_X(cross).get(0)
    evidence["h0_cross_class"] = h0
    if h0 != n + 1:
        return _fail("lemma-1-3", n, {"class": (1, -1), "h0": h0}, **evidence)
    if pic.apply(1, 0) != (1, 0) or pic.apply(0, 1) != (1, -1):
        return _fail(
            "lemma-1-3", n, {"images": [pic.apply(1, 0), pic.apply(0, 1)]}, **evidence
        )
    return CheckResult("lemma-1-3", n, Status.PASS, evidence)


def verify_lemma_1_6(n):
    """Functor formulas on the first spanning rectangle and the round trip."""
    cases = ideal_cases = 0
    ideal_twist = flop.ImageKind.IDEAL_TWIST
    for lb in flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA):
        image = flop.apply_phi(lb)
        expected = (lb.j + lb.k, -lb.k)
        if image.bundle.coords() != expected:
            return _fail(
                "lemma-1-6", n,
                {"input": lb.coords(), "image": image.bundle.coords(), "expected": expected},
            )
        if (image.kind is ideal_twist) != (lb.k == 1):
            return _fail(
                "lemma-1-6", n, {"input": lb.coords(), "kind": image.kind.value}
            )
        cases += 1
        if lb.k == 1:
            ideal_cases += 1
            continue
        back = flop.apply_phi_prime(image.bundle)
        if back != lb:
            return _fail(
                "lemma-1-6", n, {"input": lb.coords(), "round_trip": back.coords()}
            )
    evidence = {"cases": cases, "ideal_twist_cases": ideal_cases, "round_trips": cases - ideal_cases}
    return CheckResult("lemma-1-6", n, Status.PASS, evidence)


def verify_lemma_2_1(n):
    """First-route Ext entries against the ideal sheaf at n = 2.

    The decisive content is the nonzero Ext^1 of the top Koszul term; it
    must come out exactly 1.  The vanishing entries that the chase cannot
    settle are reported as unknown in the evidence rather than assumed; a
    determined entry contradicting the claim fails the check.
    """
    if n != 2:
        raise ValueError("the first-route reconstruction is specific to n = 2")
    top = homalg.ext_locally_free_vs_ideal(2, n)
    bottom = homalg.ext_locally_free_vs_ideal(1, n)
    evidence = {
        "ext1_wedge2_term": top[1],
        "ext1_wedge1_term": "unknown" if bottom[1] is None else bottom[1],
        "unknown_degrees_wedge1": [i for i, d in enumerate(bottom) if d is None],
        "unknown_degrees_wedge2": [i for i, d in enumerate(top) if d is None],
    }
    if top[1] is None:
        return CheckResult("lemma-2-1", n, Status.UNDERDETERMINED, evidence)
    if top[1] != 1:
        return _fail("lemma-2-1", n, {"ext1_wedge2_term": top[1]}, **evidence)
    if bottom[1] not in (None, 0):
        return _fail("lemma-2-1", n, {"ext1_wedge1_term": bottom[1]}, **evidence)
    return CheckResult("lemma-2-1", n, Status.PASS, evidence)


def verify_lemma_2_3(n):
    """Self-Ext table of the centre: 1 in each even degree up to 2n."""
    try:
        table = homalg.ext_table_OY(n)
    except homalg.DegeneracyUnjustifiedError as exc:
        return _fail("lemma-2-3", n, {"off_diagonal": str(exc)})
    expected = {i: 1 for i in range(0, 2 * n + 1, 2)}
    evidence = {"table": table.dims()}
    if table.dims() != expected:
        return _fail("lemma-2-3", n, {"table": table.dims(), "expected": expected})
    return CheckResult("lemma-2-3", n, Status.PASS, evidence)


def verify_cor_2_2(n):
    """The degree-2 self-Ext jumps from 0 to 1 across the first functor.  The
    chase runs first: it refuses any n but 2 before a table is built."""
    try:
        image, _ = homalg.ext2_ideal_self_with_trace(n)
    except homalg.ChaseUnderdeterminedError as exc:
        return CheckResult("cor-2-2", n, Status.UNDERDETERMINED, {"chase": str(exc)})
    variety = ModelVariety(n)
    source = pbundle.hom_dims(XLineBundle(variety, 0, 1), XLineBundle(variety, 0, 1)).get(2)
    evidence = {
        "ext2_source": source,
        "ext2_image": image,
        "h2_structure_sheaf": pbundle.cohomology_X(XLineBundle(variety, 0, 0)).get(2),
        "ext_table_centre": homalg.ext_table_OY(n).dims(),
    }
    if (source, image) != (0, 1):
        return _fail("cor-2-2", n, {"pair": (source, image)}, **evidence)
    return CheckResult("cor-2-2", n, Status.PASS, evidence)


def verify_lemma_3_4(n):
    """No higher cohomology for either family over the full (l, m) square.

    The direct classes (l, m) are the differences b - a of prop-3-5's second
    spanning rectangle, and the flopped classes (l + m, -m) their psi images.
    Each distinct class is computed once, as a repeat passed when first met,
    while ``cases`` counts every (family, l, m).

    It holds at every n, by the ranges of a in pbundle's docstring, in three
    cases.  j >= 0: then k >= -n, so the h^{n-1} range ends at -k - n <= 0,
    below its start, and the h^n range ends below 0.  -n <= j <= -1: the band
    carries nothing.  j <= -n - 1: the class is flopped, l + m <= -n - 1, and
    Serre reflects it to (j', k') = (-n - 1 - l - m, m) with k' >= -n and
    j' <= -1 - m, so all three of its ranges are empty, h^0's
    max(-m, 0) <= a <= j' too.
    """
    ModelVariety(n)  # the model needs n >= 2
    box = range(-n, n + 1)
    checked = set()
    for l in box:
        for m in box:
            for family, key in (("direct", (l, m)), ("flopped", (l + m, -m))):
                if key in checked:
                    continue
                checked.add(key)
                entries = pbundle.cohomology_coords(n, *key).entries
                # the degrees ascend, so a higher one shows in the last entry
                if entries and entries[-1][0] > 0:
                    higher = {i: d for i, d in entries if i > 0}
                    return _fail(
                        "lemma-3-4", n,
                        {"family": family, "l": l, "m": m, "higher": higher},
                    )
    return CheckResult("lemma-3-4", n, Status.PASS, {"cases": 2 * len(box) ** 2})


def _witness_pairs(n):
    """Index pairs (a, b) into the second spanning rectangle with
    min(a.j, b.j) = min(a.k, b.k) = -n, in the order of all pairs: the first
    pair of each difference b - a, one per difference."""
    side = n + 1
    every = range(side)
    for a in range(side * side):
        aj, ak = divmod(a, side)
        for bj in every if aj == 0 else (0,):
            for bk in every if ak == 0 else (0,):
                yield a, bj * side + bk


def _first_pair_of_each_key(points):
    """Index pairs (a, b) into ``points``, in the order of all pairs, that
    are the first to show their key (b - a, psi(b) - psi(a))."""
    seen = set()
    for ia, ib in itertools.product(range(len(points)), repeat=2):
        (aj, ak, paj, pak), (bj, bk, pbj, pbk) = points[ia], points[ib]
        key = (bj - aj, bk - ak, pbj - paj, pbk - pak)
        if key not in seen:
            seen.add(key)
            yield ia, ib


def verify_prop_3_5(n):
    """Hom tables are preserved degree-wise across the second functor.

    Hom^i(a, b) is the cohomology of b - a, so a pair's verdict is fixed by
    the key (b - a, psi(b) - psi(a)); comparing the tables once, at the
    first pair that shows a key, therefore decides every pair with that key.

    The images are first checked, in exact integers, to be affine on the
    rectangle: psi(c) = psi(corner) + (c.j + n) u + (c.k + n) v, with u and
    v the image steps from the corner (-n, -n) along j and along k.  Then
    the key is a function of b - a alone, and the first pair of each
    difference is its witness, the pair with min(a.j, b.j) = min(a.k, b.k)
    = -n.  Only those (2n + 1)^2 pairs are compared, in the order of all
    pairs, so the first failing pair is the one the full loop reports.
    When psi is not affine, two pairs with one difference can have
    different image differences, and the first failing pair need not be a
    witness; then every pair is visited.  psi preserves chi on all of Pic:
    on all three branches chi(O_X(j, k)) is the polynomial
    C(n + j, n) C(n + j + k, n), whose factors (j, k) -> (j + k, -k) swaps.
    """
    omega_prime = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
    images = [flop.apply_psi(c) for c in omega_prime]
    points = [(c.j, c.k, im.j, im.k) for c, im in zip(omega_prime, images)]
    _, _, j0, k0 = points[0]
    uj, uk = points[n + 1][2] - j0, points[n + 1][3] - k0
    vj, vk = points[1][2] - j0, points[1][3] - k0
    affine = all(
        pj == j0 + (cj + n) * uj + (ck + n) * vj and pk == k0 + (cj + n) * uk + (ck + n) * vk
        for cj, ck, pj, pk in points
    )
    # the witness pairs have distinct differences, so no key repeats among them
    pairs = _witness_pairs(n) if affine else _first_pair_of_each_key(points)
    for ia, ib in pairs:
        a, b = omega_prime[ia], omega_prime[ib]
        before = pbundle.hom_dims(a, b)
        after = pbundle.hom_dims(images[ia], images[ib])
        if before != after:
            return _fail(
                "prop-3-5", n,
                {
                    "a": a.coords(), "b": b.coords(),
                    "before": before.dims(), "after": after.dims(),
                },
            )
    return CheckResult("prop-3-5", n, Status.PASS, {"pairs": len(omega_prime) ** 2})


def verify_serre_3_6(n):
    """Lattice-level compatibility of the transport with the Serre twist.

    The transport must fix the canonical class omega and, for every class c
    in the second spanning rectangle, send c + omega to psi(c) + omega+.
    """
    pic = flop.phi_pullback(n)
    omega = pbundle.canonical_class(ModelVariety(n)).coords()
    (oj, ok), (pj, pk) = omega, pbundle.canonical_class(ModelVariety(n, Side.X_PLUS)).coords()
    evidence = {"matrix": [list(r) for r in pic.rows], "canonical_class": omega}
    rect = flop.enumerate_spanning_class(n, flop.SpanningClass.OMEGA_PRIME)
    compatible = pic.apply(*omega) == omega and all(
        pic.apply(c.j + oj, c.k + ok) == (im.j + pj, im.k + pk)
        for c, im in zip(rect, map(flop.apply_psi, rect))
    )
    if not compatible:
        return _fail("serre-3-6", n, {"matrix": evidence["matrix"]}, **evidence)
    return CheckResult("serre-3-6", n, Status.PASS, evidence)


# suites swept over n, and suites that refuse any n but 2 (the 4-fold case)
SWEPT_CHECKS = {
    "lemma-1-3": verify_lemma_1_3,
    "lemma-1-6": verify_lemma_1_6,
    "lemma-2-3": verify_lemma_2_3,
    "lemma-3-4": verify_lemma_3_4,
    "prop-3-5": verify_prop_3_5,
    "serre-3-6": verify_serre_3_6,
}

PINNED_CHECKS = {
    "cor-2-2": verify_cor_2_2,
    "lemma-2-1": verify_lemma_2_1,
}

ALL_CHECK_IDS = tuple(sorted(SWEPT_CHECKS) + sorted(PINNED_CHECKS))


def run_check(check_id, n):
    suite = SWEPT_CHECKS.get(check_id) or PINNED_CHECKS.get(check_id)
    if suite is None:
        raise ValueError(f"unknown check id {check_id!r}")
    return suite(n)


def run_all(max_n=4):
    """Run every suite, swept ones for 2 <= n <= max_n, pinned ones once.

    Results are merged deterministically, sorted by (check id, n).
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {shorten(str(max_n))}")
    results = []
    # n outside: lemma-3-4's classes at n are prop-3-5's differences at n, so
    # prop-3-5 finds them in the table cache before they are evicted
    for n in range(2, max_n + 1):
        for check_id in SWEPT_CHECKS:
            results.append(run_check(check_id, n))
    for check_id in PINNED_CHECKS:
        results.append(run_check(check_id, 2))
    return sorted(results, key=lambda r: (r.check_id, r.n))


def exit_code(results):
    """0 if all pass, 1 on any FAIL, 3 on UNDERDETERMINED without FAIL."""
    statuses = {r.status for r in results}
    if Status.FAIL in statuses:
        return 1
    if Status.UNDERDETERMINED in statuses:
        return 3
    return 0
