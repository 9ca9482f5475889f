"""The twisted Grassmann graph, its distance-regularity, and the
explicit vertex-to-block certificate identifying it with the block
graph of the Jungnickel-Tonchev design.

Run:  python3 demos/03_twisted_graph_certificate.py
"""

from qgeom import (
    block_graph,
    check_isomorphism,
    coordinate_hyperplane,
    f_certificate,
    f_map,
    field_new,
    grassmann_array,
    grassmann_graph,
    intersection_array,
    jt_design,
    polarity_new,
    stabilizer_generators,
    twisted_grassmann,
    vertex_permutation,
)


def main():
    f = field_new(2)
    h = coordinate_hyperplane(f, 5)
    s = polarity_new(f, h)

    print("== the twisted Grassmann graph at q=2, e=2 ==")
    tg = twisted_grassmann(f, 2, h, s)
    tags = [lab[0] for lab in tg.labels]
    print(f"vertices: {tg.n} ({tags.count('A')} from 3-spaces outside the "
          f"hyperplane, {tags.count('B')} from 1-spaces inside it)")
    print(f"regular of degree {tg.degree(0)}")
    print()

    print("== distance-regularity, checked from every base vertex ==")
    ia_t = intersection_array(tg)
    ia_g = intersection_array(grassmann_graph(5, 2, 2))
    print(f"twisted graph:  {ia_t}")
    print(f"J_2(5,2):       {ia_g}")
    print(f"same array: {ia_t == ia_g}")
    print("same parameters as the Grassmann graph, but the twisted graph")
    print("is famously not vertex-transitive.")
    print()

    print("== the same array from one base vertex per orbit ==")
    gens = [vertex_permutation(tg, phi) for phi in stabilizer_generators(f, 2)]
    ia_o = intersection_array(tg, gens)
    print(f"{len(gens)} hyperplane-stabilizer generators, "
          f"{ia_o.scan.automorphisms_checked} of them merge orbits and are checked as automorphisms")
    print(f"{ia_o.scan.orbits} vertex orbits (A and B), so {ia_o.scan.bfs_bases} BFS bases "
          f"instead of {tg.n}: {ia_o}")
    print(f"closed form of J_2(5,2): {grassmann_array(5, 2, 2)}")
    print()

    print("== one vertex's block under the map f ==")
    tag, w = tg.labels[0]
    print(f"first A vertex: span of rows {w.basis_rows}")
    blk = sorted(f_map(w, h, s))
    print(f"f sends it to the 7-point block {blk}")
    print()

    print("== certificate: twisted graph = block graph of the jt design ==")
    d = jt_design(f, 2, h, s)
    cert = f_certificate(tg, d, h, s)
    bg = block_graph(d, 3)
    print(f"certificate maps {len(cert.mapping)} vertices to block indices")
    print(f"adjacency preserved in both directions: {check_isomorphism(tg, bg, cert)}")
    print("two vertices are adjacent exactly when their f-blocks share 3 points.")


if __name__ == "__main__":
    main()
