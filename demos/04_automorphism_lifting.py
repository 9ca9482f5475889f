"""Lifting hyperplane-stabilizing semilinear maps to automorphisms of
the Jungnickel-Tonchev design, ending with the full census at q=2.

Run:  python3 demos/04_automorphism_lifting.py [--full]
"""

import sys
import time

from qgeom import (
    check_theorem2_relation,
    coordinate_hyperplane,
    exhaustive_lift_check,
    f_certificate,
    field_new,
    is_design_automorphism,
    jt_design,
    lift,
    random_stabilizer_element,
    stabilizer_order,
    twisted_grassmann,
)


def main(full: bool):
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    from qgeom import polarity_new

    s = polarity_new(f, h)
    d = jt_design(f, 2, h, s)
    tg = twisted_grassmann(f, 2, h, s)
    cert = f_certificate(tg, d, h, s)

    print("== a random hyperplane stabilizer and its lift ==")
    phi = random_stabilizer_element(f, 2, seed=5)
    print("matrix rows:")
    for row in phi.matrix.entries:
        print(f"  {row}")
    perm = lift(phi, s)
    print(f"lifted to a permutation of {len(perm.perm)} projective points")
    print(f"design automorphism: {is_design_automorphism(d, perm) is True}")
    print(f"block action matches f . phi: "
          f"{check_theorem2_relation(d, tg, cert, phi, s) is True}")
    print()

    print("== sampling 200 stabilizer elements ==")
    good = 0
    for i in range(200):
        p = lift(random_stabilizer_element(f, 2, i), s)
        if is_design_automorphism(d, p) is True:
            good += 1
    print(f"{good}/200 lift to design automorphisms")
    print()

    order = stabilizer_order(2, 2, 1)
    print(f"== the stabilizer has exactly {order} elements ==")
    if full:
        print("running the exhaustive census...")
        t0 = time.time()
        rep = exhaustive_lift_check(s)
        print(f"verified {rep.verified} elements in {time.time() - t0:.1f}s; "
              f"{rep.distinct} distinct point permutations, "
              f"{rep.identity_count} identity, {len(rep.failures)} failures")
        print(f"census matches the group order: {rep.ok}")
    else:
        print("pass --full to run the exhaustive 322560-element census.")


if __name__ == "__main__":
    main("--full" in sys.argv[1:])
