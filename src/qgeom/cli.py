"""Command-line front end: build, verify, and export the package's
graphs and designs.

Exit codes: 0 success, 1 internal failure, 2 configuration error,
3 verification failure (the report is still written).  Verification
reports are JSON with a schema marker; progress for the long
exhaustive check goes to standard error so standard output stays
machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass

from .autgroup import (
    NotAutomorphism,
    check_theorem2_relation,
    exhaustive_lift_check,
    random_stabilizer_element,
    stabilizer_order,
)
from .drg import check_2design, check_isomorphism, f_certificate, intersection_array, p_rank
from .formats import (
    design_to_json,
    encode_dimacs,
    encode_graph6,
    graph_to_json,
    incidence_csv,
)
from .geometry import (
    block_graph,
    grassmann_graph,
    intersection_spectrum,
    jt_design,
    pg_design,
    twisted_grassmann,
)
from .gf import field_from_order, is_prime
from .polarity import polarity_new
from .subspace import coordinate_hyperplane, gaussian_binomial

_EXT = {"graph6": "g6", "dimacs-edges": "dimacs", "json": "json", "incidence-csv": "csv"}


@dataclass
class RunConfig:
    q: int
    e: int
    gram: list | None
    seed: int
    fmt: str | None
    out: str | None
    jobs: int

    @classmethod
    def from_args(cls, args):
        jobs = getattr(args, "jobs", 1)
        if jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {jobs}")
        return cls(
            q=args.q,
            e=args.e,
            gram=_load_gram(args.gram) if getattr(args, "gram", None) else None,
            seed=getattr(args, "seed", 0),
            fmt=getattr(args, "format", None),
            out=getattr(args, "out", None),
            jobs=min(jobs, os.cpu_count() or 1),
        )


def _load_gram(path: str):
    with open(path) as fh:
        gram = json.load(fh)
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("gram file must hold a JSON list of rows")
    return gram


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qgeom-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _instance(cfg: RunConfig) -> dict:
    return {
        "q": cfg.q,
        "e": cfg.e,
        "gram": cfg.gram if cfg.gram is not None else "identity",
        "seed": cfg.seed,
    }


def _setting(cfg: RunConfig):
    """Field, hyperplane, and polarity for the configured instance."""
    field = field_from_order(cfg.q)
    h = coordinate_hyperplane(field, 2 * cfg.e + 1)
    s = polarity_new(field, h, cfg.gram)
    return field, h, s


def _emit_report(cfg: RunConfig, report: dict) -> int:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        _atomic_write(cfg.out, text)
        print(f"report written to {cfg.out}")
    else:
        print(text, end="")
    return 0 if report["pass"] else 3


def _report(cfg: RunConfig, check: str, ok: bool, details: dict, t0: float) -> dict:
    return {
        "schema": 1,
        "check": check,
        "instance": _instance(cfg),
        "pass": bool(ok),
        "details": details,
        "elapsed": round(time.time() - t0, 3),
    }


# -- build / export ---------------------------------------------------------


def _make_object(kind: str, cfg: RunConfig, n: int | None = None, k: int | None = None):
    field, h, s = _setting(cfg)
    if kind == "grassmann":
        return grassmann_graph(n or 2 * cfg.e + 1, k or cfg.e, cfg.q)
    if kind == "twisted":
        return twisted_grassmann(field, cfg.e, h, s)
    if kind == "pg-design":
        return pg_design(field, cfg.e)
    if kind == "jt-design":
        return jt_design(field, cfg.e, h, s)
    raise ValueError(f"unknown kind {kind}")


def _serialize(obj, fmt: str) -> str:
    from .geometry import Design, Graph

    if isinstance(obj, Graph):
        if fmt == "graph6":
            return encode_graph6(obj) + "\n"
        if fmt == "dimacs-edges":
            return encode_dimacs(obj)
        if fmt == "json":
            return json.dumps(graph_to_json(obj)) + "\n"
        raise ValueError(f"graphs do not export as {fmt}")
    if isinstance(obj, Design):
        if fmt == "json":
            return json.dumps(design_to_json(obj)) + "\n"
        if fmt == "incidence-csv":
            return incidence_csv(obj)
        raise ValueError(f"designs do not export as {fmt}")
    raise ValueError(f"cannot serialize {type(obj).__name__}")


def _summary(obj) -> str:
    from .geometry import Design, Graph

    if isinstance(obj, Graph):
        degs = set(obj.degrees())
        deg = degs.pop() if len(degs) == 1 else "irregular"
        return f"vertices={obj.n} degree={deg}"
    sizes = {len(b) for b in obj.blocks}
    k = sizes.pop() if len(sizes) == 1 else "mixed"
    return f"points={obj.v} blocks={obj.b} k={k}"


def cmd_build(args) -> int:
    cfg = RunConfig.from_args(args)
    obj = _make_object(args.kind, cfg, getattr(args, "n", None), getattr(args, "k", None))
    fmt = cfg.fmt or "json"
    out = cfg.out or f"{args.kind}-q{cfg.q}-e{cfg.e}.{_EXT[fmt]}"
    _atomic_write(out, _serialize(obj, fmt))
    print(f"{_summary(obj)} -> {out}")
    return 0


# -- verify -----------------------------------------------------------------


def _progress(check: str):
    """A callback taking the fraction done; it rewrites one stderr line
    at most once per whole percent."""
    shown = [-1]

    def progress(frac):
        whole = int(round(frac * 100, 6))  # 0.29 * 100 is 28.999...
        if whole > shown[0]:
            shown[0] = whole
            print(f"\r{check} {frac * 100:5.1f}%", end="", file=sys.stderr, flush=True)

    return progress


def _verify_thm1(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, h, s = _setting(cfg)
    tg = twisted_grassmann(field, cfg.e, h, s)
    d = jt_design(field, cfg.e, h, s)
    threshold = (cfg.q ** cfg.e - 1) // (cfg.q - 1)
    cert = f_certificate(tg, d, h, s)
    bg = block_graph(d, threshold)
    ok = check_isomorphism(tg, bg, cert)
    details = {
        "vertices": tg.n,
        "threshold": threshold,
        "certificate": cert.to_json(),
    }
    return _report(cfg, "thm1", ok, details, t0)


def _verify_drg(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, h, s = _setting(cfg)
    tg = twisted_grassmann(field, cfg.e, h, s)
    ia_t = intersection_array(tg)
    ia_g = intersection_array(grassmann_graph(2 * cfg.e + 1, cfg.e, cfg.q))
    from .drg import IntersectionArray

    ok = isinstance(ia_t, IntersectionArray) and ia_t == ia_g
    details = {
        "twisted": ia_t.to_json(),
        "grassmann": ia_g.to_json() if isinstance(ia_g, IntersectionArray) else None,
    }
    return _report(cfg, "drg", ok, details, t0)


def _expected_parameters(q: int, e: int):
    v = (q ** (2 * e + 1) - 1) // (q - 1)
    k = (q ** (e + 1) - 1) // (q - 1)
    lam = gaussian_binomial(2 * e - 1, e - 1, q)
    r = lam * (v - 1) // (k - 1)
    b = v * r // k
    return v, b, r, k, lam


def _verify_design(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, h, s = _setting(cfg)
    d = jt_design(field, cfg.e, h, s)
    result = check_2design(d)
    from .geometry import DesignParameters

    expected = _expected_parameters(cfg.q, cfg.e)
    got = None
    ok = False
    if isinstance(result, DesignParameters):
        got = (result.v, result.b, result.r, result.k, result.lambda_)
        ok = got == expected
    details = {
        "expected": list(expected),
        "found": list(got) if got else result.to_json(),
    }
    return _report(cfg, "design", ok, details, t0)


def _verify_spectrum(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, h, s = _setting(cfg)
    sp_jt = intersection_spectrum(jt_design(field, cfg.e, h, s))
    sp_pg = intersection_spectrum(pg_design(field, cfg.e))
    want = sorted((cfg.q ** i - 1) // (cfg.q - 1) for i in range(1, cfg.e + 1))
    ok = sorted(sp_jt) == want and sp_jt == sp_pg
    details = {
        "support": sorted(sp_jt),
        "expected_support": want,
        "jt": {str(sz): n for sz, n in sorted(sp_jt.items())},
        "pg": {str(sz): n for sz, n in sorted(sp_pg.items())},
    }
    return _report(cfg, "spectrum", ok, details, t0)


def _verify_aut_sample(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, h, s = _setting(cfg)
    d = jt_design(field, cfg.e, h, s)
    tg = twisted_grassmann(field, cfg.e, h, s)
    cert = f_certificate(tg, d, h, s)
    count = 1000 if (cfg.q, cfg.e) == (2, 2) else 100
    failures = []
    progress = _progress("aut-sample")
    for i in range(count):
        phi = random_stabilizer_element(field, cfg.e, (cfg.seed, i))
        rel = check_theorem2_relation(d, tg, cert, phi, s)
        if rel is not True:
            stage = "automorphism" if isinstance(rel, NotAutomorphism) else "theorem2"
            failures.append({"index": i, "stage": stage, "witness": rel.to_json()})
        progress((i + 1) / count)
    print(file=sys.stderr)
    details = {"sampled": count, "failures": failures}
    return _report(cfg, "aut-sample", not failures, details, t0)


def _verify_aut_exhaustive(cfg: RunConfig) -> dict:
    t0 = time.time()
    field, _, s = _setting(cfg)
    progress = _progress("aut-exhaustive")
    rep = exhaustive_lift_check(field, cfg.e, jobs=cfg.jobs, progress=progress, s=s)
    print(file=sys.stderr)
    details = rep.to_json()
    details["expected_order"] = stabilizer_order(cfg.q, cfg.e, field.f)
    return _report(cfg, "aut-exhaustive", rep.ok, details, t0)


def _verify_prank(cfg: RunConfig) -> dict:
    t0 = time.time()
    reason = _skip_reason("prank", cfg)
    if reason:
        raise ValueError(f"verify prank: {reason}")
    field, h, s = _setting(cfg)
    p = field.p
    r_jt = p_rank(jt_design(field, cfg.e, h, s), p)
    r_pg = p_rank(pg_design(field, cfg.e), p)
    details = {"p": p, "jt_rank": r_jt, "pg_rank": r_pg}
    return _report(cfg, "prank", r_jt == r_pg, details, t0)


_VERIFIERS = {
    "thm1": _verify_thm1,
    "drg": _verify_drg,
    "design": _verify_design,
    "spectrum": _verify_spectrum,
    "aut-sample": _verify_aut_sample,
    "aut-exhaustive": _verify_aut_exhaustive,
    "prank": _verify_prank,
}


def _skip_reason(check: str, cfg: RunConfig):
    """Why a check does not run at this instance, or None."""
    if check == "aut-exhaustive" and (cfg.q, cfg.e) != (2, 2):
        return "exhaustive enumeration runs only at (q,e)=(2,2)"
    if check == "prank" and not is_prime(cfg.q):
        return f"equal p-rank is claimed only for prime q, and q={cfg.q} is not prime"
    return None


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    if args.check == "all":
        t0 = time.time()
        sub = []
        skipped = []
        for name in ("design", "spectrum", "thm1", "drg", "prank", "aut-sample", "aut-exhaustive"):
            reason = _skip_reason(name, cfg)
            if reason:
                skipped.append({"check": name, "reason": reason})
                continue
            sub.append(_VERIFIERS[name](cfg))
        ok = all(r["pass"] for r in sub)
        report = _report(cfg, "all", ok, {"reports": sub, "skipped": skipped}, t0)
    else:
        report = _VERIFIERS[args.check](cfg)
    return _emit_report(cfg, report)


# -- argument parsing -------------------------------------------------------


def _add_common(p, with_format=False):
    p.add_argument("--q", type=int, default=2, help="field order (prime power)")
    p.add_argument("--e", type=int, default=2, help="instance parameter e")
    p.add_argument("--gram", help="JSON file with a gram matrix (list of rows)")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--out", help="output path")
    p.add_argument("--jobs", type=int, default=1, help="worker processes for aut-exhaustive")
    if with_format:
        p.add_argument(
            "--format",
            choices=sorted(_EXT),
            help="serialization format (default json)",
        )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qgeom",
        description="Construct, verify, and export twisted Grassmann graphs and their designs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, text in (
        ("build", "construct an object and write it to a file"),
        ("export", "serialize an object in a chosen format"),
    ):
        b = sub.add_parser(name, help=text)
        b.add_argument("kind", choices=["grassmann", "twisted", "pg-design", "jt-design"])
        b.add_argument("--n", type=int, help="ambient dimension (grassmann only, default 2e+1)")
        b.add_argument("--k", type=int, help="subspace dimension (grassmann only, default e)")
        _add_common(b, with_format=True)
        b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification and emit a JSON report")
    v.add_argument(
        "check",
        choices=["thm1", "drg", "design", "spectrum", "aut-sample", "aut-exhaustive", "prank", "all"],
    )
    _add_common(v)
    v.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
