import argparse
import json
import os

import pytest

from qgeom import decode_graph6, grassmann_graph, jt_design, field_new
from qgeom.cli import RunConfig, main


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
    assert set(len(bin(a).replace("0b", "").replace("0", "")) for a in g.adj) == {42}


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
    import qgeom.cli as cli

    def jt_design(*args):
        raise AssertionError("a design was built")

    monkeypatch.setattr(cli, "jt_design", jt_design)
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


def test_verification_failure_exits_3(tmp_path, monkeypatch, capsys):
    import qgeom.cli as cli

    def fake(cfg):
        return {
            "schema": 1,
            "check": "thm1",
            "instance": cli._instance(cfg),
            "pass": False,
            "details": {"forced": True},
            "elapsed": 0.0,
        }

    monkeypatch.setitem(cli._VERIFIERS, "thm1", fake)
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

    def stub(field, e, jobs=1, progress=None, *, s=None):
        seen.append(s)
        return LiftCheckReport(322560, 322560, 322560, 1, (), 81, 0.0)

    monkeypatch.setattr(cli, "exhaustive_lift_check", stub)
    (tmp_path / "hyp.gram").write_text(json.dumps(gram))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "verify", "aut-exhaustive", "--gram", "hyp.gram")
    assert code == 0
    assert json.loads(out)["instance"]["gram"] == gram
    (s,) = seen
    assert s.gram == Matrix(field_new(2), gram)


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
        def verify(cfg):
            ran.append(name)
            return cli._report(cfg, name, True, {}, 0.0)

        return verify

    for name in cli._VERIFIERS:
        monkeypatch.setitem(cli._VERIFIERS, name, stub(name))
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


def test_jobs_bounds(capsys):
    code, _, err = run(capsys, "verify", "aut-exhaustive", "--jobs", "0")
    assert code == 2
    assert "--jobs" in err
    # capped at construction, so no worker is ever asked for
    big = argparse.Namespace(q=2, e=2, jobs=10**6)
    assert RunConfig.from_args(big).jobs == (os.cpu_count() or 1)


def test_verify_aut_sample_passes(capsys):
    code, out, err = run(capsys, "verify", "aut-sample")
    assert code == 0
    rep = json.loads(out)
    assert rep["details"] == {"sampled": 1000, "failures": []}
    assert err.startswith("\raut-sample ") and err.endswith("100.0%\n")
    assert err.count("\r") <= 101  # once per whole percent, 0 to 100


def test_verify_aut_sample_reports_a_theorem2_failure(monkeypatch, capsys):
    import qgeom.cli as cli
    from qgeom import IsoCertificate

    literal = cli.f_certificate

    def swapped(*args):
        cert = literal(*args)
        bad = list(cert.mapping)
        bad[0], bad[1] = bad[1], bad[0]
        return IsoCertificate(tuple(bad), cert.source, cert.target)

    monkeypatch.setattr(cli, "f_certificate", swapped)
    code, out, _ = run(capsys, "verify", "aut-sample")
    assert code == 3
    failures = json.loads(out)["details"]["failures"]
    assert failures
    assert {f["stage"] for f in failures} == {"theorem2"}


def test_verify_aut_sample_reports_a_lift_that_is_no_automorphism(monkeypatch, capsys):
    import qgeom.autgroup as autgroup
    from qgeom import (
        PointPermutation,
        coordinate_hyperplane,
        is_design_automorphism,
        polarity_new,
        random_stabilizer_element,
    )

    literal = autgroup.lift

    def swapped(phi, s):
        perm = list(literal(phi, s).perm)
        perm[0], perm[1] = perm[1], perm[0]
        return PointPermutation(tuple(perm))

    monkeypatch.setattr(autgroup, "lift", swapped)
    code, out, _ = run(capsys, "verify", "aut-sample")
    assert code == 3
    failures = json.loads(out)["details"]["failures"]
    assert {f["stage"] for f in failures} == {"automorphism"}
    field = field_new(2)
    s = polarity_new(field, coordinate_hyperplane(field, 5))
    phi = random_stabilizer_element(field, 2, (0, failures[0]["index"]))
    expected = is_design_automorphism(jt_design(field, 2), swapped(phi, s))
    assert failures[0]["witness"] == expected.to_json()
