"""Acceptance gate: nine checks covering every construction and theorem
at desk scale, each with an explicit runtime budget and a printed
pass/fail line.
"""

import random
import time
from itertools import combinations

from qgeom import (
    DesignParameters,
    IntersectionArray,
    IsoCertificate,
    block_graph,
    check_2design,
    check_isomorphism,
    check_theorem2_relation,
    coordinate_hyperplane,
    enumerate_k_subspaces,
    exhaustive_lift_check,
    f_certificate,
    field_from_order,
    field_new,
    full_space,
    gaussian_binomial,
    grassmann_graph,
    intersection_array,
    intersection_spectrum,
    jt_design,
    p_rank,
    pg_design,
    polarity_new,
    random_stabilizer_element,
    span,
    stabilizer_generators,
    stabilizer_order,
    twisted_grassmann,
    vertex_permutation,
)


def report(capsys, num, ok, msg, dt, budget):
    verdict = "PASS" if ok and dt < budget else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} {verdict}: {msg} ({dt:.2f}s, budget {budget:.0f}s)")


def setting(q, e):
    field = field_from_order(q)
    h = coordinate_hyperplane(field, 2 * e + 1)
    return field, h, polarity_new(field, h)


def design_parameter_formulas(q, e):
    v = (q ** (2 * e + 1) - 1) // (q - 1)
    k = (q ** (e + 1) - 1) // (q - 1)
    lam = gaussian_binomial(2 * e - 1, e - 1, q)
    r = lam * (v - 1) // (k - 1)
    b = v * r // k
    return DesignParameters(v=v, b=b, r=r, k=k, lambda_=lam)


def test_criterion_1_jt_design_parameters(capsys):
    t0 = time.perf_counter()
    field, h, s = setting(2, 2)
    d = jt_design(field, 2, h, s)
    params = check_2design(d)
    expected = design_parameter_formulas(2, 2)
    ok = params == expected == DesignParameters(v=31, b=155, r=35, k=7, lambda_=7)
    dt = time.perf_counter() - t0
    report(capsys, 1, ok, f"jt(2,2) verifies as 2-(31,7,7) with b=155 r=35", dt, 1.0)
    assert params == expected
    assert expected.v == 31 and expected.k == 7 and expected.lambda_ == 7
    assert expected.b == 155 and expected.r == 35
    assert dt < 1.0


def test_criterion_2_intersection_spectrum(capsys):
    t0 = time.perf_counter()
    field, h, s = setting(2, 2)
    s_jt = intersection_spectrum(jt_design(field, 2, h, s))
    s_pg = intersection_spectrum(pg_design(field, 2))
    support_ok = sorted(s_jt) == [1, 3]
    equal_ok = s_jt == s_pg
    dt = time.perf_counter() - t0
    report(
        capsys, 2, support_ok and equal_ok,
        f"jt spectrum support {sorted(s_jt)} matches pg, counts {dict(sorted(s_jt.items()))}",
        dt, 5.0,
    )
    assert support_ok and equal_ok
    assert sum(s_jt.values()) == 11935
    assert dt < 5.0


def test_criterion_3_block_graph_isomorphism(capsys):
    t0 = time.perf_counter()
    field, h, s = setting(2, 2)
    tg = twisted_grassmann(field, 2, h, s)
    d = jt_design(field, 2, h, s)
    cert = f_certificate(tg, d, h, s)
    bg = block_graph(d, 3)
    iso_ok = check_isomorphism(tg, bg, cert) is True

    # every vertex pair against the 3-point intersection rule
    masks = [sum(1 << i for i in blk) for blk in d.blocks]
    mapped = [masks[cert.mapping[i]] for i in range(tg.n)]
    pair_violations = 0
    for i, j in combinations(range(tg.n), 2):
        same = (mapped[i] & mapped[j]).bit_count() == 3
        if tg.is_adjacent(i, j) != same:
            pair_violations += 1
    dt = time.perf_counter() - t0
    ok22 = iso_ok and pair_violations == 0
    report(
        capsys, 3, ok22,
        f"twisted(2,2) ~ block graph via f over all 11935 pairs",
        dt, 10.0,
    )
    assert iso_ok
    assert pair_violations == 0
    assert dt < 10.0

    # (3,2): the same equivalence on a 10^5-pair random sample
    t1 = time.perf_counter()
    field3, h3, s3 = setting(3, 2)
    tg3 = twisted_grassmann(field3, 2, h3, s3)
    d3 = jt_design(field3, 2, h3, s3)
    cert3 = f_certificate(tg3, d3, h3, s3)
    masks3 = [sum(1 << i for i in blk) for blk in d3.blocks]
    mapped3 = [masks3[cert3.mapping[i]] for i in range(tg3.n)]
    rng = random.Random(32)
    sample_violations = 0
    for _ in range(100_000):
        i = rng.randrange(1210)
        j = rng.randrange(1210)
        if i == j:
            continue
        same = (mapped3[i] & mapped3[j]).bit_count() == 4
        if tg3.is_adjacent(i, j) != same:
            sample_violations += 1
    dt1 = time.perf_counter() - t1
    report(
        capsys, 3, sample_violations == 0,
        f"twisted(3,2) equivalence on 10^5 sampled pairs",
        dt1, 10.0,
    )
    assert sample_violations == 0
    assert dt1 < 10.0


def grassmann_array_formula(n, k, q):
    # b_j = q^(2j+1) [k-j]_q [n-k-j]_q and c_j = ([j]_q)^2
    def gauss1(m):
        return (q ** m - 1) // (q - 1)

    d = min(k, n - k)
    b = tuple(q ** (2 * j + 1) * gauss1(k - j) * gauss1(n - k - j) for j in range(d))
    c = tuple(gauss1(j) ** 2 for j in range(1, d + 1))
    return IntersectionArray(b, c, d)


def test_criterion_4_distance_regularity(capsys):
    t0 = time.perf_counter()
    field, h, s = setting(2, 2)
    tg = twisted_grassmann(field, 2, h, s)
    ia_t = intersection_array(tg)
    ia_g = intersection_array(grassmann_graph(5, 2, 2))
    ia_f = grassmann_array_formula(5, 2, 2)
    # (3,2) from one base per orbit of the verified stabilizer generators
    field3, h3, s3 = setting(3, 2)
    tg3 = twisted_grassmann(field3, 2, h3, s3)
    gens = [vertex_permutation(tg3, phi) for phi in stabilizer_generators(field3, 2)]
    ia_3 = intersection_array(tg3, gens)
    ia_3f = grassmann_array_formula(5, 2, 3)
    ok = (
        isinstance(ia_t, IntersectionArray)
        and ia_t == ia_g == ia_f == IntersectionArray((42, 24), (1, 9), 2)
        and ia_3 == ia_3f == IntersectionArray((156, 108), (1, 16), 2)
        and ia_3.scan.bfs_bases == 2
    )
    dt = time.perf_counter() - t0
    report(
        capsys, 4, ok,
        f"twisted(2,2) array {ia_t} = J_2(5,2) = formula oracle; "
        f"twisted(3,2) array {ia_3} = formula oracle from {ia_3.scan.bfs_bases} bases",
        dt, 10.0,
    )
    assert ia_t == IntersectionArray((42, 24), (1, 9), 2)
    assert ia_g == ia_t
    assert ia_f == ia_t
    assert ia_3 == ia_3f == IntersectionArray((156, 108), (1, 16), 2)
    assert ia_3.scan.bfs_bases == 2
    assert dt < 10.0


def test_criterion_5_pg_block_graph_is_grassmann(capsys):
    t0 = time.perf_counter()
    field = field_new(2)
    d = pg_design(field, 2)
    bg = block_graph(d, 3)
    g = grassmann_graph(5, 3, 2)
    index_of = {sub: i for i, sub in enumerate(g.labels)}
    mapping = tuple(index_of[u] for (_, u) in d.block_labels)
    cert = IsoCertificate(mapping, "pg-block-graph", "grassmann-5-3")
    ok = check_isomorphism(bg, g, cert) is True
    dt = time.perf_counter() - t0
    report(capsys, 5, ok, "block graph of pg(2,2) label-isomorphic to J_2(5,3)", dt, 10.0)
    assert ok
    assert dt < 10.0


def test_criterion_6_automorphism_lifting(capsys):
    t0 = time.perf_counter()
    failures = 0
    for (q, e, count) in ((2, 2, 1000), (3, 2, 100)):
        field, h, s = setting(q, e)
        d = jt_design(field, e, h, s)
        tg = twisted_grassmann(field, e, h, s)
        cert = f_certificate(tg, d, h, s)
        for i in range(count):
            phi = random_stabilizer_element(field, e, (q, e, i))
            # one lift per element: a lift that is not a design automorphism
            # comes back as its NotAutomorphism witness
            if check_theorem2_relation(d, tg, cert, phi, s) is not True:
                failures += 1
    dt = time.perf_counter() - t0
    report(
        capsys, 6, failures == 0,
        "1000 lifts at (2,2) and 100 at (3,2) are automorphisms satisfying the block relation",
        dt, 60.0,
    )
    assert failures == 0
    assert dt < 60.0


def test_criterion_7_exhaustive_lift_census(capsys):
    t0 = time.perf_counter()
    rep = exhaustive_lift_check()
    # order independently from the block-triangular count:
    # |GL(4,2)| * q^4 mixing columns * (q-1) corners * f frobenius powers
    gl4 = 1
    for i in range(4):
        gl4 *= 2 ** 4 - 2 ** i
    derived = gl4 * 2 ** 4 * (2 - 1) * 1
    ok = (
        rep.ok
        and rep.verified == rep.distinct == derived == 322560
        and stabilizer_order(2, 2, 1) == derived
    )
    dt = time.perf_counter() - t0
    report(
        capsys, 7, ok,
        f"all {rep.verified} stabilizer elements lift to {rep.distinct} distinct automorphisms",
        dt, 600.0,
    )
    assert rep.ok
    assert rep.verified == rep.distinct == 322560
    assert stabilizer_order(2, 2, 1) == derived == 322560
    assert rep.identity_count == 1
    assert dt < 600.0


def test_criterion_8_p_rank_equality(capsys):
    t0 = time.perf_counter()
    field, h, s = setting(2, 2)
    rank_jt = p_rank(jt_design(field, 2, h, s), 2)
    rank_pg = p_rank(pg_design(field, 2), 2)
    ok = rank_jt == rank_pg
    dt = time.perf_counter() - t0
    report(capsys, 8, ok, f"2-rank of jt = {rank_jt} equals 2-rank of pg = {rank_pg}", dt, 5.0)
    assert rank_jt == rank_pg
    assert dt < 5.0


def test_criterion_9_property_suites(capsys):
    t0 = time.perf_counter()
    violations = 0

    # field axioms, exhaustive for every prime power q <= 16
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        F = field_from_order(q)
        els = list(F.elements())
        for a in els:
            if F.add(a, 0) != a or F.mul(a, 1) != a or F.add(a, F.neg(a)) != 0:
                violations += 1
            if a != 0 and F.mul(a, F.inv(a)) != 1:
                violations += 1
        for a in els:
            for b in els:
                if F.add(a, b) != F.add(b, a) or F.mul(a, b) != F.mul(b, a):
                    violations += 1
                for c in els:
                    if F.add(F.add(a, b), c) != F.add(a, F.add(b, c)):
                        violations += 1
                    if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
                        violations += 1
                    if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
                        violations += 1

    # polarity laws, exhaustive over the 67 subspaces of H at (2,2)
    field, h, s = setting(2, 2)
    subs = [w for k in range(5) for w in enumerate_k_subspaces(h, k)]
    if len(subs) != 67:
        violations += 1
    for w in subs:
        sw = s.apply(w)
        if sw.dim != 4 - w.dim or s.apply(sw) != w:
            violations += 1
    for u in subs:
        for w in subs:
            if u.contains(w) and not s.apply(w).contains(s.apply(u)):
                violations += 1
            if s.apply(u.sum(w)) != s.apply(u).intersect(s.apply(w)):
                violations += 1

    # modular dimension identity on 10^4 random pairs
    rng = random.Random(9)
    fields = [field_new(2), field_new(3), field_new(2, 2)]
    for _ in range(10_000):
        F = rng.choice(fields)
        n = rng.randrange(1, 6)
        u = span(F, n, [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(rng.randrange(n + 1))])
        w = span(F, n, [tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(rng.randrange(n + 1))])
        if u.dim + w.dim != u.dim_sum(w) + u.dim_intersect(w):
            violations += 1

    # enumeration counts against Gaussian binomials, n <= 5, q in {2,3}
    for q in (2, 3):
        F = field_from_order(q)
        for n in range(1, 6):
            amb = full_space(F, n)
            for k in range(n + 1):
                if len(list(enumerate_k_subspaces(amb, k))) != gaussian_binomial(n, k, q):
                    violations += 1

    dt = time.perf_counter() - t0
    report(
        capsys, 9, violations == 0,
        "field axioms, polarity laws, modular identity, enumeration counts all hold",
        dt, 120.0,
    )
    assert violations == 0
    assert dt < 120.0
