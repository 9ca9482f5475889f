import json
import os

import numpy as np
import pytest

from qgeom import decode_graph6, grassmann_graph, jt_design, field_new
from qgeom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_build_twisted_graph6(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", "twisted", "--q", "2", "--e", "2", "--format", "graph6")
    assert code == 0
    assert "vertices=155 degree=42" in out
    text = (tmp_path / "twisted-q2-e2.g6").read_text().strip()
    g = decode_graph6(text)
    assert g.n == 155
    assert set(np.bitwise_count(g.adj).sum(axis=1).tolist()) == {42}


def test_build_grassmann_with_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, "build", "grassmann", "--q", "2", "--e", "2", "--n", "4", "--k", "2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads((tmp_path / "grassmann-q2-e2.json").read_text())
    assert data["n"] == 35
    ref = grassmann_graph(4, 2, 2)
    assert sorted(map(tuple, data["edges"])) == list(ref.edges())


@pytest.mark.parametrize("flag", ["--n", "--k"])
def test_build_grassmann_keeps_an_explicit_zero(flag, tmp_path, monkeypatch, capsys):
    # 0 is a value, not a missing flag: grassmann_graph refuses it
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", "grassmann", flag, "0")
    assert code == 2
    assert out == "" and err.startswith("error: need 1 <= k <= n-1")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["twisted", "pg-design", "jt-design"])
@pytest.mark.parametrize("flags", [("--n", "7"), ("--k", "3"), ("--n", "7", "--k", "3")], ids=["n", "k", "n-k"])
def test_build_refuses_n_and_k_for_every_other_kind(kind, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "build", kind, *flags)
    assert code == 2
    assert out == "" and err == f"error: {flags[0]} applies to grassmann only, not to {kind}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["grassmann", "pg-design"])
@pytest.mark.parametrize("gram", [[[1]], [[1, 2], [3]]], ids=["1x1", "ragged"])
def test_build_refuses_gram_for_objects_without_a_polarity(kind, gram, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gram").write_text(json.dumps(gram))
    code, out, err = run(capsys, "build", kind, "--gram", "g.gram")
    assert code == 2
    assert out == "" and err == f"error: --gram applies to twisted and jt-design only, not to {kind}: it has no polarity\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.gram"]


@pytest.mark.parametrize("kind", ["twisted", "jt-design"])
@pytest.mark.parametrize(
    "gram, message",
    [([[1]], "gram must be 4x4 for this hyperplane, got 1x1"), ([[1, 2], [3]], "2 is not an element of GF(2)")],
    ids=["1x1", "ragged"],
)
def test_build_still_validates_the_gram_of_twisted_and_jt(kind, gram, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.gram").write_text(json.dumps(gram))
    code, out, err = run(capsys, "build", kind, "--gram", "g.gram")
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_build_jt_design_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "build", "jt-design", "--format", "incidence-csv")
    assert code == 0
    assert "points=31 blocks=155 k=7" in out
    rows = (tmp_path / "jt-design-q2-e2.csv").read_text().strip().split("\n")
    assert len(rows) == 155


def test_build_output_is_reproducible(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "pg-design", "--out", "a.json")
    run(capsys, "build", "pg-design", "--out", "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_verify_drg_report(capsys):
    code, out, err = run(capsys, "verify", "drg")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    array = {"b": [42, 24], "c": [1, 9], "diameter": 2}
    # 7 of the 16 stabilizer generators merge orbits; the others are not needed
    assert rep["details"] == {
        "twisted": array, "grassmann": array,
        "bfs_bases": 2, "orbits": 2, "automorphisms_checked": 7,
    }
    assert "drg 100.0%" in err


def test_verify_thm1_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "thm1", "--out", "r.json")
    assert code == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["schema"] == 1
    assert rep["check"] == "thm1"
    assert rep["pass"] is True
    assert rep["instance"] == {"q": 2, "e": 2, "gram": "identity", "seed": 0}
    assert rep["details"]["threshold"] == 3
    assert len(rep["details"]["certificate"]["mapping"]) == 155
    assert rep["elapsed"] >= 0


def _thm1_setting(q=2, e=2, gram=None):
    from qgeom.cli import RunConfig, _geometry

    cfg = RunConfig(q=q, e=e, gram=gram, seed=0, fmt=None, out=None)
    return cfg, _geometry(cfg)


@pytest.mark.parametrize("pair", [(0, 1), (0, 154), (153, 154)], ids=["A-A", "A-B", "B-B"])
def test_verify_thm1_compares_every_row(pair):
    # Γ with one pair flipped fails thm1, in A's rows, across the families and
    # in B's rows alone; the report is otherwise the same
    from qgeom.cli import _verify_thm1
    from qgeom.geometry import Graph

    cfg, inst = _thm1_setting()
    ok, details = _verify_thm1(cfg, inst)
    assert ok is True and len(inst.labels.runs[0][1]) == 140  # vertices 0..139 are A, 140..154 B
    adj, (i, j) = inst.graph.adj.copy(), pair
    adj[i, j >> 3] ^= np.uint8(1 << (j & 7))
    adj[j, i >> 3] ^= np.uint8(1 << (i & 7))
    inst.__dict__["graph"] = Graph(inst.labels, adj)
    assert _verify_thm1(cfg, inst) == (False, details)


@pytest.mark.parametrize(
    "q, gram",
    [(2, None), (2, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]), (3, [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])],
    ids=["identity", "paired", "symplectic"],
)
def test_thm1_graph_of_f_is_the_block_graph_relabelled(q, gram):
    # the oracle: the threshold graph of the rows of f is the JT block graph
    # carried over by the certificate, which the dense map test proves, and
    # its bytes are Γ's
    from qgeom.cli import _verify_thm1
    from qgeom.drg import check_isomorphism
    from qgeom.geometry import _by_size, _count_graph, block_graph

    cfg, inst = _thm1_setting(q, 2, gram)
    t = q + 1
    rows = _count_graph(inst.labels, _by_size([inst.f]), len(inst.points), lambda a, b: t)
    assert check_isomorphism(rows, block_graph(inst.jt, t), inst.certificate)
    assert rows.adj.tobytes() == inst.graph.adj.tobytes()
    assert _verify_thm1(cfg, inst)[0] is True


def test_verify_thm1_runs_no_dense_map_test(monkeypatch, capsys, tg22):
    import qgeom.drg as drg

    calls, maps_onto = [], drg._maps_onto
    monkeypatch.setattr(drg, "_maps_onto", lambda *args: calls.append(args[2]) or maps_onto(*args))
    code, out, _ = run(capsys, "verify", "thm1", "--q", "3")
    assert code == 0 and json.loads(out)["pass"] is True
    assert calls == []
    assert drg.check_isomorphism(tg22, tg22, drg.IsoCertificate(tuple(range(tg22.n)), "g", "g")) and len(calls) == 1  # the spy sees the dense test


def test_verify_design_and_spectrum_stdout(capsys):
    code, out, _ = run(capsys, "verify", "design")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["found"] == [31, 155, 35, 7, 7]
    code, out, _ = run(capsys, "verify", "spectrum")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["support"] == [1, 3]


def test_verify_prank(capsys):
    code, out, _ = run(capsys, "verify", "prank")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"]["jt_rank"] == rep["details"]["pg_rank"] == 16


def test_verify_prank_refuses_non_prime_q(monkeypatch, capsys):
    from qgeom.geometry import _Instance

    def refuse(inst):
        raise AssertionError("a design was built")

    monkeypatch.setattr(_Instance, "jt", property(refuse))
    monkeypatch.setattr(_Instance, "pg", property(refuse))
    code, out, err = run(capsys, "verify", "prank", "--q", "4")
    assert code == 2
    assert out == ""
    assert "prime q" in err and "q=4" in err


def test_config_errors_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "verify", "thm1", "--q", "6")
    assert code == 2
    assert "prime power" in err
    (tmp_path / "bad.gram").write_text('"nope"')
    code, _, err = run(capsys, "verify", "prank", "--gram", "bad.gram")
    assert code == 2
    code, _, err = run(capsys, "build", "twisted", "--format", "incidence-csv")
    assert code == 2
    assert "export" in err


def test_argparse_rejects_unknown_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "moebius"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["build", "export"])
@pytest.mark.parametrize("flag", ["--seed", "--jobs"])
def test_build_and_export_refuse_verify_only_flags(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "twisted", flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    import qgeom.cli as cli

    def fake(cfg, inst):
        return False, {"forced": True}

    monkeypatch.setitem(cli._CHECKS, "thm1", fake)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "thm1", "--out", "fail.json")
    assert code == 3
    rep = json.loads((tmp_path / "fail.json").read_text())
    assert rep["pass"] is False


def test_gram_file_used(tmp_path, monkeypatch, capsys):
    gram = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    (tmp_path / "hyp.gram").write_text(json.dumps(gram))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "design", "--gram", "hyp.gram")
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"]["gram"] == gram
    assert rep["details"]["found"] == [31, 155, 35, 7, 7]


def test_gram_file_reaches_the_census(tmp_path, monkeypatch, capsys):
    import qgeom.cli as cli
    from qgeom import LiftCheckReport, Matrix

    gram = [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    seen = []

    def stub(progress=None, *, inst):
        seen.append(inst.s)
        return LiftCheckReport(322560, 322560, 322560, 1, (), 81, 0.0)

    monkeypatch.setattr(cli, "exhaustive_lift_check", stub)
    (tmp_path / "hyp.gram").write_text(json.dumps(gram))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "aut-exhaustive", "--gram", "hyp.gram")
    assert code == 0
    assert json.loads(out)["instance"]["gram"] == gram
    (s,) = seen
    assert s.gram == Matrix(field_new(2), gram)


@pytest.mark.parametrize("jobs", [["--jobs", "1"], ["--jobs", "3"], []], ids=["jobs1", "jobs3", "none"])
def test_jobs_is_accepted_and_read_by_nothing(jobs, monkeypatch, capsys):
    # the census runs in one process, so every --jobs gives one call and one report
    import qgeom.cli as cli
    from qgeom import LiftCheckReport

    calls = []
    report = LiftCheckReport(322560, 322560, 322560, 1, (), 81, 0.0)

    def stub(*args, **kwargs):
        calls.append((args, sorted(kwargs)))
        return report

    monkeypatch.setattr(cli, "exhaustive_lift_check", stub)
    code, out, _ = run(capsys, "verify", "aut-exhaustive", *jobs)
    assert code == 0
    assert calls == [((), ["inst", "progress"])]
    rep = json.loads(out)
    assert rep.pop("elapsed") >= 0
    assert rep == {
        "schema": 1,
        "check": "aut-exhaustive",
        "instance": {"q": 2, "e": 2, "gram": "identity", "seed": 0},
        "pass": True,
        "details": {**report.to_json(), "expected_order": 322560},
    }


def test_drg_progress_reaches_100_only_after_the_work(monkeypatch, capsys):
    import qgeom.cli as cli

    def stop(*args):
        raise RuntimeError("scan stopped")

    monkeypatch.setattr(cli, "_scan", stop)
    code, _, err = run(capsys, "verify", "drg")
    assert code == 1
    assert "scan stopped" in err
    assert "drg 100.0%" not in err


def test_export_matches_library_design(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "export", "jt-design", "--format", "json", "--out", "d.json")
    assert code == 0
    data = json.loads((tmp_path / "d.json").read_text())
    lib = jt_design(field_new(2), 2)
    assert [tuple(b) for b in data["blocks"]] == list(lib.blocks)


def test_verify_all_lists_skipped_checks(monkeypatch, capsys):
    import qgeom.cli as cli

    ran = []

    def stub(name):
        def verify(cfg, inst):
            ran.append(name)
            return True, {}

        return verify

    for name in cli._CHECKS:
        monkeypatch.setitem(cli._CHECKS, name, stub(name))
    code, out, _ = run(capsys, "verify", "all", "--q", "3")
    assert code == 0
    assert "aut-exhaustive" not in ran
    skipped = json.loads(out)["details"]["skipped"]
    assert [s["check"] for s in skipped] == ["aut-exhaustive"]
    assert "(2,2)" in skipped[0]["reason"]
    ran.clear()
    code, out, _ = run(capsys, "verify", "all", "--q", "4")
    assert code == 0
    assert "aut-exhaustive" not in ran and "prank" not in ran
    skipped = json.loads(out)["details"]["skipped"]
    assert [s["check"] for s in skipped] == ["prank", "aut-exhaustive"]
    assert "prime q" in skipped[0]["reason"]
    ran.clear()
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert "aut-exhaustive" in ran and "prank" in ran
    assert json.loads(out)["details"]["skipped"] == []


@pytest.mark.parametrize("gram", [None, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]], ids=["identity", "paired"])
def test_verify_all_reports_match_single_checks(gram, tmp_path, monkeypatch, capsys):
    # verify all shares one instance across its checks; each check alone builds its own
    monkeypatch.chdir(tmp_path)
    extra = ["--q", "3"]
    if gram:
        (tmp_path / "paired.gram").write_text(json.dumps(gram))
        extra += ["--gram", "paired.gram"]
    code, out, _ = run(capsys, "verify", "all", *extra)
    assert code == 0
    shared = json.loads(out)["details"]["reports"]
    assert [r["check"] for r in shared] == ["design", "spectrum", "thm1", "drg", "prank", "aut-sample"]
    for rep in shared:
        code, out, _ = run(capsys, "verify", rep["check"], *extra)
        assert code == 0
        assert {**json.loads(out), "elapsed": None} == {**rep, "elapsed": None}


def test_verify_all_builds_each_thing_once(monkeypatch, capsys):
    import qgeom.cli as cli
    import qgeom.geometry as geometry

    enumerated, counted, met, mapped = [], [], [], []
    slabs, count_graph, meet_graph, block_map = geometry._rref_slabs, geometry._count_graph, geometry._meet_graph, geometry._block_map

    def enumerate_spy(space, k):
        enumerated.append((space.dim, k))
        return slabs(space, k)

    def count_spy(labels, *args):
        counted.append(len(labels))
        return count_graph(labels, *args)

    def meet_spy(labels):
        met.append(len(labels))
        return meet_graph(labels)

    def map_spy(ws, *args):
        mapped.append(len(ws))
        return block_map(ws, *args)

    monkeypatch.setattr(geometry, "_rref_slabs", enumerate_spy)
    assert not hasattr(geometry, "enumerate_k_subspaces")  # geometry reads the array core alone
    monkeypatch.setattr(geometry, "_count_graph", count_spy)
    monkeypatch.setattr(cli, "_count_graph", count_spy)
    monkeypatch.setattr(geometry, "_meet_graph", meet_spy)
    monkeypatch.setattr(geometry, "_block_map", map_spy)
    code, _, _ = run(capsys, "verify", "all", "--q", "3")
    assert code == 0
    assert enumerated.count((5, 3)) == 1  # the (e+1)-subspaces of V
    assert counted == [1210]  # thm1's graph of the rows of f
    assert met == [1210]  # the twisted graph
    assert mapped == [1210]  # f, once over every vertex


def test_verify_all_leaves_the_family_arrays_as_built(monkeypatch, capsys):
    # the point-set groups of the graph, f and the vertex index are A's own array, not copies
    import qgeom.cli as cli
    from qgeom.geometry import _Instance

    made, geometry = [], cli._geometry

    def keep(cfg):
        made.append(inst := geometry(cfg))
        return inst

    monkeypatch.setattr(cli, "_geometry", keep)
    code, _, _ = run(capsys, "verify", "all", "--q", "3")
    assert code == 0
    (inst,) = made
    fresh = _Instance(inst.field, inst.e, inst.h, inst.s)
    for (tag, *family), (fresh_tag, *built) in zip(inst.families, fresh.families):
        assert tag == fresh_tag
        for a, b in zip(family, built):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_verify_all_at_2_2_forms_f_once(monkeypatch, capsys):
    # the census reads the run's JT design, not one of its own
    import qgeom.geometry as geometry

    mapped = []
    block_map = geometry._block_map

    def map_spy(ws, *args):
        mapped.append(len(ws))
        return block_map(ws, *args)

    monkeypatch.setattr(geometry, "_block_map", map_spy)
    code, out, _ = run(capsys, "verify", "all", "--q", "2", "--e", "2")
    assert code == 0
    assert [r["check"] for r in json.loads(out)["details"]["reports"]][-1] == "aut-exhaustive"
    assert mapped == [155]  # f, once over every vertex


def test_verify_aut_sample_builds_no_adjacency(monkeypatch, capsys):
    import qgeom.geometry as geometry

    def refuse(*args):
        raise AssertionError("an adjacency matrix was built")

    monkeypatch.setattr(geometry, "_count_graph", refuse)
    monkeypatch.setattr(geometry, "_meet_graph", refuse)
    code, out, _ = run(capsys, "verify", "aut-sample")
    assert code == 0
    assert json.loads(out)["details"] == {"sampled": 1000, "failures": [], "cross_checked": 33}


def test_verify_aut_sample_passes(capsys):
    code, out, err = run(capsys, "verify", "aut-sample")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"] == {"sampled": 1000, "failures": [], "cross_checked": 33}
    assert err.startswith("\raut-sample ") and err.endswith("100.0%\n")
    assert err.count("\r") <= 101  # once per whole percent, 0 to 100


def _swap_certificate(monkeypatch):
    """Patch the instance's certificate to swap the blocks of vertices 0
    and 1; returns the swap, to apply to a certificate built elsewhere."""
    from qgeom import IsoCertificate
    from qgeom.geometry import _Instance

    literal = _Instance.certificate.func

    def swap(cert):
        bad = list(cert.mapping)
        bad[0], bad[1] = bad[1], bad[0]
        return IsoCertificate(tuple(bad), cert.source, cert.target)

    monkeypatch.setattr(_Instance, "certificate", property(lambda inst: swap(literal(inst))))
    return swap


def test_verify_aut_sample_reports_a_theorem2_failure(monkeypatch, capsys):
    _swap_certificate(monkeypatch)
    code, out, _ = run(capsys, "verify", "aut-sample")
    assert code == 3
    failures = json.loads(out)["details"]["failures"]
    assert failures
    assert {f["stage"] for f in failures} == {"theorem2"}


def test_verify_aut_sample_reports_a_lift_that_is_no_automorphism(swap_lifted_points, capsys):
    from qgeom import (
        coordinate_hyperplane,
        is_design_automorphism,
        polarity_new,
        random_stabilizer_element,
    )

    swapped = swap_lifted_points()
    code, out, _ = run(capsys, "verify", "aut-sample")
    assert code == 3
    failures = json.loads(out)["details"]["failures"]
    assert {f["stage"] for f in failures} == {"automorphism"}
    field = field_new(2)
    s = polarity_new(field, coordinate_hyperplane(field, 5))
    phi = random_stabilizer_element(field, 2, (0, failures[0]["index"]))
    expected = is_design_automorphism(jt_design(field, 2), swapped(phi, s))
    assert failures[0]["witness"] == expected.to_json()


def test_verify_aut_sample_exits_1_when_the_batched_lift_diverges(swap_lifted_points, capsys):
    swap_lifted_points(lift_too=False)
    code, out, err = run(capsys, "verify", "aut-sample")
    assert code == 1
    assert out == ""
    assert "literal lift at element 0" in err


def test_verify_aut_sample_failures_match_single_checks(monkeypatch, capsys):
    from qgeom import (
        NotAutomorphism,
        Theorem2Violation,
        check_theorem2_relation,
        coordinate_hyperplane,
        f_certificate,
        polarity_new,
        random_stabilizer_element,
        twisted_grassmann,
    )

    swap = _swap_certificate(monkeypatch)
    code, out, _ = run(capsys, "verify", "aut-sample", "--seed", "0")
    assert code == 3
    failures = json.loads(out)["details"]["failures"]
    field = field_new(2)
    h = coordinate_hyperplane(field, 5)
    s = polarity_new(field, h)
    d, tg = jt_design(field, 2, h, s), twisted_grassmann(field, 2, h, s)
    cert = swap(f_certificate(tg, d, h, s))
    single = []
    for i in range(1000):
        rel = check_theorem2_relation(d, tg, cert, random_stabilizer_element(field, 2, (0, i)), s)
        if rel is not True:
            stage = "automorphism" if isinstance(rel, NotAutomorphism) else "theorem2"
            single.append({"index": i, "stage": stage, "witness": rel.to_json()})
    assert failures and failures == single
    phi = random_stabilizer_element(field, 2, (3, 0))
    assert check_theorem2_relation(d, tg, cert, phi, s) == Theorem2Violation(0, 18, 54)


def test_point_images_are_formed_once_per_batch_of_maps(monkeypatch, capsys):
    import qgeom.autgroup as autgroup
    import qgeom.cli as cli
    import qgeom.geometry as geometry

    literal = geometry._point_images
    square = []

    def spy(field, mats, frobs):
        if mats.shape[1] == mats.shape[2]:  # stabilizer elements, not subspace bases
            square.append(len(mats))
        return literal(field, mats, frobs)

    for module in (geometry, autgroup, cli):
        if getattr(module, "_point_images", None) is literal:
            monkeypatch.setattr(module, "_point_images", spy)
    code, _, _ = run(capsys, "verify", "aut-sample", "--q", "3")
    assert code == 0
    assert square == [64, 36]  # one call per chunk, for the lift and the vertex images both
    square.clear()
    code, _, _ = run(capsys, "verify", "drg", "--q", "3")
    assert code == 0
    assert square == [17]  # every generator in one call


def test_a_check_that_does_not_run_exits_2_with_its_skipped_reason(monkeypatch, capsys):
    import qgeom.cli as cli
    from qgeom.geometry import _Instance

    for name in cli._CHECKS:
        monkeypatch.setitem(cli._CHECKS, name, lambda cfg, inst: (True, {}))
    reasons = {}
    for q in ("3", "4"):
        code, out, _ = run(capsys, "verify", "all", "--q", q)
        assert code == 0
        reasons.update({(s["check"], q): s["reason"] for s in json.loads(out)["details"]["skipped"]})

    def refuse(inst):
        raise AssertionError("the instance was built")

    monkeypatch.setattr(_Instance, "families", property(refuse))
    for check, q in (("aut-exhaustive", "3"), ("prank", "4")):
        code, out, err = run(capsys, "verify", check, "--q", q)
        assert code == 2
        assert out == ""
        assert err == f"error: verify {check}: {reasons[check, q]}\n"


def test_out_writes_into_a_fifo_in_place(tmp_path, capsys):
    import stat

    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        code, _, _ = run(capsys, "verify", "design", "--out", str(fifo))
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert json.loads(os.read(reader, 1 << 16))["check"] == "design"
    finally:
        os.close(reader)


def test_out_follows_a_symlink_and_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run(capsys, "verify", "design", "--out", str(link))
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text())["check"] == "design"
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".qgeom-")] == []


def test_out_gives_a_new_file_the_umask_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "build", "twisted", "--out", "t.g6", "--format", "graph6")
    finally:
        os.umask(old)
    assert code == 0
    assert (tmp_path / "t.g6").stat().st_mode & 0o777 == 0o644


def test_out_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("old\n")
    out.chmod(0o640)
    code, _, _ = run(capsys, "verify", "design", "--out", str(out))
    assert code == 0
    assert out.stat().st_mode & 0o777 == 0o640
    assert json.loads(out.read_text())["check"] == "design"


@pytest.mark.parametrize("command", [("verify", "design"), ("build", "twisted")], ids=["verify", "build"])
def test_out_into_a_missing_directory_names_the_path_given(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(capsys, *command, "--out", str(out))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,built",
    [(("verify", "thm1"), "_geometry"), (("build", "twisted"), "_make_object"), (("export", "pg-design"), "_make_object")],
    ids=["verify", "build", "export"],
)
def test_out_that_is_a_directory_is_refused_before_anything_is_built(command, built, tmp_path, monkeypatch, capsys):
    import qgeom.cli as cli

    calls = []
    monkeypatch.setattr(cli, built, lambda *args: calls.append(args))
    code, stdout, err = run(capsys, *command, "--out", str(tmp_path))
    assert code == 2
    assert (stdout, err) == ("", f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n")
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "kind,fmt,message",
    [
        ("twisted", "incidence-csv", "graphs do not export as incidence-csv"),
        ("grassmann", "incidence-csv", "graphs do not export as incidence-csv"),
        ("jt-design", "graph6", "designs do not export as graph6"),
        ("pg-design", "dimacs-edges", "designs do not export as dimacs-edges"),
    ],
)
@pytest.mark.parametrize("command", ["build", "export"])
def test_build_refuses_a_format_of_another_kind_before_building(command, kind, fmt, message, tmp_path, monkeypatch, capsys):
    import qgeom.cli as cli

    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "_make_object", lambda *args: calls.append(args))
    code, stdout, err = run(capsys, command, kind, "--q", "5", "--format", fmt)
    assert code == 2
    assert (stdout, err) == ("", f"error: {message}\n")
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", [1.0, 0.5, True, "1"], ids=["one-float", "half", "bool", "string"])
def test_gram_entries_must_be_integers(entry, tmp_path, monkeypatch, capsys):
    gram = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    gram[2][1] = entry
    (tmp_path / "bad.gram").write_text(json.dumps(gram))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "design", "--gram", "bad.gram")
    assert code == 2
    assert out == ""
    assert err.startswith("error: gram entry at row 2, column 1 is not an integer")


def _without_elapsed(obj):
    """A report with every elapsed time taken out, at any depth."""
    if isinstance(obj, dict):
        return {key: _without_elapsed(value) for key, value in obj.items() if key != "elapsed"}
    return [_without_elapsed(x) for x in obj] if isinstance(obj, list) else obj


@pytest.mark.parametrize("q", ["2", "3"])
def test_verify_all_never_reads_the_design_blocks(q, monkeypatch, capsys):
    # every check reads the designs' point arrays and their index, not the tuple view
    from qgeom import Design

    code, out, _ = run(capsys, "verify", "all", "--q", q)
    assert code == 0
    expected = json.loads(out)

    def refuse(self):
        raise AssertionError("Design.blocks was read")

    monkeypatch.setattr(Design, "blocks", property(refuse))
    code, out, _ = run(capsys, "verify", "all", "--q", q)
    assert code == 0
    assert _without_elapsed(json.loads(out)) == _without_elapsed(expected)


def _refuse_label_tuples(monkeypatch):
    """Make reading Graph.labels or Design.block_labels, which forms their
    label tuples, raise."""
    from qgeom import Design, Graph

    def refuse(self):
        raise AssertionError("a label tuple was formed")

    monkeypatch.setattr(Graph, "labels", property(refuse))
    monkeypatch.setattr(Design, "block_labels", property(refuse))


@pytest.mark.parametrize("q", ["2", "3"])
def test_verify_all_never_forms_the_label_tuples(q, monkeypatch, capsys):
    # the checks read the instance's label sequence, one label at a time
    code, out, _ = run(capsys, "verify", "all", "--q", q)
    assert code == 0
    expected = json.loads(out)
    _refuse_label_tuples(monkeypatch)
    code, out, _ = run(capsys, "verify", "all", "--q", q)
    assert code == 0
    assert _without_elapsed(json.loads(out)) == _without_elapsed(expected)


def test_build_exports_never_form_the_label_tuples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exports = [("twisted", fmt) for fmt in ("graph6", "dimacs-edges", "json")]
    exports += [(kind, fmt) for kind in ("jt-design", "pg-design") for fmt in ("incidence-csv", "json")]
    for kind, fmt in exports:
        assert run(capsys, "build", kind, "--q", "3", "--format", fmt, "--out", f"{kind}.{fmt}")[0] == 0
    with monkeypatch.context() as patched:
        _refuse_label_tuples(patched)
        for kind, fmt in exports:
            assert run(capsys, "build", kind, "--q", "3", "--format", fmt, "--out", f"{kind}.{fmt}.patched")[0] == 0
    for kind, fmt in exports:
        assert (tmp_path / f"{kind}.{fmt}.patched").read_bytes() == (tmp_path / f"{kind}.{fmt}").read_bytes(), (kind, fmt)
