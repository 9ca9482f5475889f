"""Command-line front end: build, verify, and export the package's
graphs and designs.

Exit codes: 0 success, 1 internal failure, 2 configuration error,
3 verification failure (the report is still written).  Verification
reports are JSON with a schema marker; progress for the long
exhaustive check goes to standard error so standard output stays
machine-parseable.

The checks are one table, `_CHECKS`, in the order `verify all` runs
them; `cmd_verify` applies `_skip_reason` to it and times every check.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import tempfile
import time
from dataclasses import dataclass

from .autgroup import (
    NotAutomorphism,
    _vertex_images,
    check_theorem2_batch,
    exhaustive_lift_check,
    random_stabilizer_element,
    stabilizer_generators,
    stabilizer_order,
)
from .drg import (
    IntersectionArray,
    _orbit_bases,
    _scan,
    check_2design,
    grassmann_array,
    p_rank,
)
from .formats import (
    design_to_json,
    encode_dimacs,
    encode_graph6,
    encode_graph_json,
    incidence_csv,
)
from .geometry import (
    Design,
    DesignParameters,
    Graph,
    _by_size,
    _count_graph,
    _Instance,
    grassmann_graph,
    intersection_spectrum,
    pg_design,
)
from .gf import field_from_order, is_prime
from .polarity import polarity_new
from .subspace import coordinate_hyperplane, gaussian_binomial

@dataclass
class RunConfig:
    q: int
    e: int
    gram: list | None
    seed: int
    fmt: str | None
    out: str | None

    @classmethod
    def from_args(cls, args):
        """The run's settings; an --out that is a directory is refused here,
        before anything is built or checked."""
        out = getattr(args, "out", None)
        if out and os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
        return cls(
            q=args.q,
            e=args.e,
            gram=_load_gram(args.gram) if getattr(args, "gram", None) else None,
            seed=getattr(args, "seed", 0),
            fmt=getattr(args, "format", None),
            out=out,
        )


def _load_gram(path: str):
    with open(path) as fh:
        gram = json.load(fh)
    if not isinstance(gram, list) or not all(isinstance(r, list) for r in gram):
        raise ValueError("gram file must hold a JSON list of rows")
    return gram


def _atomic_write(path: str, text: str):
    """Write text to path, with the mode `open(path, "w")` would give: the
    old file's, or 0666 less the umask.  A regular file (or none) is
    replaced atomically; a symlink's target is the one replaced; any other
    existing path (a FIFO, a device) is written in place.  An OSError in
    making the temporary file names the path given."""
    given, path = path, os.path.realpath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(path, "w") as fh:
            fh.write(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".qgeom-")
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, given) from None
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), stat.S_IMODE(mode))
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


def _geometry(cfg: RunConfig) -> _Instance:
    """The configured instance: the coordinate hyperplane and the polarity
    of the gram.  It builds nothing until a check reads from it."""
    field = field_from_order(cfg.q)
    h = coordinate_hyperplane(field, 2 * cfg.e + 1)
    return _Instance(field, cfg.e, h, polarity_new(field, h, cfg.gram))


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
        "elapsed": round(time.perf_counter() - t0, 3),
    }


# -- build / export ---------------------------------------------------------


def _make_object(kind: str, cfg: RunConfig, n: int | None = None, k: int | None = None):
    if cfg.gram is not None and kind in ("grassmann", "pg-design"):
        raise ValueError(f"--gram applies to twisted and jt-design only, not to {kind}: it has no polarity")
    if kind == "grassmann":
        return grassmann_graph(2 * cfg.e + 1 if n is None else n, cfg.e if k is None else k, cfg.q)
    for flag, value in (("--n", n), ("--k", k)):
        if value is not None:
            raise ValueError(f"{flag} applies to grassmann only, not to {kind}")
    if kind == "twisted":
        return _geometry(cfg).graph
    if kind == "pg-design":
        return pg_design(field_from_order(cfg.q), cfg.e)
    if kind == "jt-design":
        return _geometry(cfg).jt
    raise ValueError(f"unknown kind {kind}")


# Each class of object: its name in messages, the build kinds that make
# it, and per format its file extension and its writer.
_FORMATS = {
    Graph: ("graphs", ("grassmann", "twisted"), {
        "graph6": ("g6", lambda g: encode_graph6(g) + "\n"),
        "dimacs-edges": ("dimacs", encode_dimacs),
        "json": ("json", lambda g: encode_graph_json(g) + "\n"),
    }),
    Design: ("designs", ("pg-design", "jt-design"), {
        "json": ("json", lambda d: json.dumps(design_to_json(d)) + "\n"),
        "incidence-csv": ("csv", incidence_csv),
    }),
}


def _format(cls, fmt: str) -> tuple:
    """(file extension, writer) of fmt for objects of class cls; ValueError
    if they do not export as fmt."""
    name, _, writers = _FORMATS[cls]
    if fmt not in writers:
        raise ValueError(f"{name} do not export as {fmt}")
    return writers[fmt]


def _serialize(obj, fmt: str) -> str:
    if (cls := next((c for c in _FORMATS if isinstance(obj, c)), None)) is None:
        raise ValueError(f"cannot serialize {type(obj).__name__}")
    return _format(cls, fmt)[1](obj)


def _summary(obj) -> str:
    if isinstance(obj, Graph):
        degs = set(obj.degrees())
        deg = degs.pop() if len(degs) == 1 else "irregular"
        return f"vertices={obj.n} degree={deg}"
    sizes = {pts.shape[1] for _, pts in obj.index.groups}
    k = sizes.pop() if len(sizes) == 1 else "mixed"
    return f"points={obj.v} blocks={obj.b} k={k}"


def cmd_build(args) -> int:
    """Build one object and write it; a format its class does not take is
    refused before anything is built."""
    cfg = RunConfig.from_args(args)
    fmt = cfg.fmt or "json"
    ext, write = _format(next(c for c, (_, kinds, _) in _FORMATS.items() if args.kind in kinds), fmt)
    obj = _make_object(args.kind, cfg, getattr(args, "n", None), getattr(args, "k", None))
    out = cfg.out or f"{args.kind}-q{cfg.q}-e{cfg.e}.{ext}"
    _atomic_write(out, write(obj))
    print(f"{_summary(obj)} -> {out}")
    return 0


# -- verify -----------------------------------------------------------------


def _progress(check: str):
    """A callback taking the fraction done; it rewrites one stderr line
    at most once per whole percent, and ends the line at 100%."""
    shown = [-1]

    def progress(frac):
        whole = int(round(frac * 100, 6))  # 0.29 * 100 is 28.999...
        if whole > shown[0]:
            shown[0] = whole
            end = "\n" if whole >= 100 else ""
            print(f"\r{check} {frac * 100:5.1f}%", end=end, file=sys.stderr, flush=True)

    return progress


# Each check returns (ok, details); `_run_check` times it and builds its report.


def _verify_thm1(cfg: RunConfig, inst: _Instance):
    # Theorem 1 as two rules on one vertex order.  The certificate proves
    # that the rows of f are exactly the JT blocks, one per vertex, so the
    # threshold graph of those rows, in vertex order, is the JT block graph
    # relabelled by the certificate: Γ is isomorphic to it when their packed
    # bytes agree.  The buffers are compared in place, with no n x n copy.
    threshold = gaussian_binomial(cfg.e, 1, cfg.q)
    blocks = _count_graph(inst.labels, _by_size([inst.f]), len(inst.points), lambda a, b: threshold)
    details = {
        "vertices": inst.graph.n,
        "threshold": threshold,
        "certificate": inst.certificate.to_json(),
    }
    return blocks.adj.data == inst.graph.adj.data, details


def _verify_drg(cfg: RunConfig, inst: _Instance):
    gens = stabilizer_generators(inst.field, cfg.e)
    # Each generator is proved an automorphism of Γ at point level, so no
    # dense map test runs.  Γ is `_meet_graph` over its own record, and by
    # that function's contract its adjacency is the meet rule, a function
    # of |P(u)|, |P(w)| and |P(u) ∩ P(w)| alone, which every point
    # permutation that maps the vertex point sets onto themselves keeps.
    # Once `_vertex_images` finds every image (it refuses a -1), the
    # generator's point permutation maps the vertex point sets onto
    # themselves, so its row of vertex images is an automorphism of Γ.
    # The kernel's oracle tests against every pairwise count are the
    # evidence for that contract.  Γ is built first:
    # the images then take memory its build freed, and ru_maxrss is lower.
    ia_t = _scan(inst.graph, *_orbit_bases(inst.graph.n, _vertex_images(inst.labels, gens)[1]))
    _progress("drg")(1.0)
    ia_g = grassmann_array(2 * cfg.e + 1, cfg.e, cfg.q)
    ok = isinstance(ia_t, IntersectionArray) and ia_t == ia_g
    return ok, {"twisted": ia_t.to_json(), "grassmann": ia_g.to_json(), **ia_t.scan.to_json()}


def _expected_parameters(q: int, e: int):
    v = gaussian_binomial(2 * e + 1, 1, q)
    k = gaussian_binomial(e + 1, 1, q)
    lam = gaussian_binomial(2 * e - 1, e - 1, q)
    r = lam * (v - 1) // (k - 1)
    b = v * r // k
    return v, b, r, k, lam


def _verify_design(cfg: RunConfig, inst: _Instance):
    result = check_2design(inst.jt)
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
    return ok, details


def _verify_spectrum(cfg: RunConfig, inst: _Instance):
    sp_jt = intersection_spectrum(inst.jt)
    sp_pg = intersection_spectrum(inst.pg)
    want = sorted(gaussian_binomial(i, 1, cfg.q) for i in range(1, cfg.e + 1))
    ok = sorted(sp_jt) == want and sp_jt == sp_pg
    details = {
        "support": sorted(sp_jt),
        "expected_support": want,
        "jt": {str(sz): n for sz, n in sorted(sp_jt.items())},
        "pg": {str(sz): n for sz, n in sorted(sp_pg.items())},
    }
    return ok, details


def _verify_aut_sample(cfg: RunConfig, inst: _Instance):
    count = 1000 if (cfg.q, cfg.e) == (2, 2) else 100
    maps = [random_stabilizer_element(inst.field, cfg.e, (cfg.seed, i)) for i in range(count)]
    results, cross_checked = check_theorem2_batch(inst.jt, inst.labels, inst.certificate, maps, inst.s, _progress("aut-sample"))
    failures = []
    for i, rel in enumerate(results):
        if rel is not True:
            stage = "automorphism" if isinstance(rel, NotAutomorphism) else "theorem2"
            failures.append({"index": i, "stage": stage, "witness": rel.to_json()})
    return not failures, {"sampled": count, "failures": failures, "cross_checked": cross_checked}


def _verify_aut_exhaustive(cfg: RunConfig, inst: _Instance):
    rep = exhaustive_lift_check(progress=_progress("aut-exhaustive"), inst=inst)
    details = rep.to_json()
    details["expected_order"] = stabilizer_order(cfg.q, cfg.e, inst.field.f)
    return rep.ok, details


def _verify_prank(cfg: RunConfig, inst: _Instance):
    p = inst.field.p
    r_jt = p_rank(inst.jt, p)
    r_pg = p_rank(inst.pg, p)
    return r_jt == r_pg, {"p": p, "jt_rank": r_jt, "pg_rank": r_pg}


# Every check by name, in the order `verify all` runs them.
_CHECKS = {
    "design": _verify_design,
    "spectrum": _verify_spectrum,
    "thm1": _verify_thm1,
    "drg": _verify_drg,
    "prank": _verify_prank,
    "aut-sample": _verify_aut_sample,
    "aut-exhaustive": _verify_aut_exhaustive,
}


def _skip_reason(check: str, cfg: RunConfig):
    """Why a check does not run at this instance, or None."""
    if check == "aut-exhaustive" and (cfg.q, cfg.e) != (2, 2):
        return "exhaustive enumeration runs only at (q,e)=(2,2)"
    if check == "prank" and not is_prime(cfg.q):
        return f"equal p-rank is claimed only for prime q, and q={cfg.q} is not prime"
    return None


def _run_check(cfg: RunConfig, inst: _Instance, check: str) -> dict:
    """The report of one check of `_CHECKS`, timed."""
    t0 = time.perf_counter()
    ok, details = _CHECKS[check](cfg, inst)
    return _report(cfg, check, ok, details, t0)


def cmd_verify(args) -> int:
    """Run one check, or every check of `_CHECKS` under `all`.  A check that
    does not run at the instance is refused before anything is built when
    it is named alone, and listed under `skipped` by `all`."""
    cfg = RunConfig.from_args(args)
    inst = _geometry(cfg)
    names = list(_CHECKS) if args.check == "all" else [args.check]
    skipped = {name: reason for name in names if (reason := _skip_reason(name, cfg))}
    if args.check in skipped:
        raise ValueError(f"verify {args.check}: {skipped[args.check]}")
    t0 = time.perf_counter()
    reports = [_run_check(cfg, inst, name) for name in names if name not in skipped]
    if args.check != "all":
        return _emit_report(cfg, reports[0])
    details = {"reports": reports, "skipped": [{"check": c, "reason": r} for c, r in skipped.items()]}
    return _emit_report(cfg, _report(cfg, "all", all(r["pass"] for r in reports), details, t0))


# -- argument parsing -------------------------------------------------------


def _add_common(p, with_format=False):
    p.add_argument("--q", type=int, default=2, help="field order (prime power)")
    p.add_argument("--e", type=int, default=2, help="instance parameter e")
    p.add_argument("--gram", help="JSON file with a gram matrix (list of rows)")
    p.add_argument("--out", help="output path")
    if with_format:
        p.add_argument(
            "--format",
            choices=sorted({fmt for _, _, writers in _FORMATS.values() for fmt in writers}),
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
        b.add_argument("kind", choices=[kind for _, kinds, _ in _FORMATS.values() for kind in kinds])
        b.add_argument("--n", type=int, help="ambient dimension (grassmann only, default 2e+1)")
        b.add_argument("--k", type=int, help="subspace dimension (grassmann only, default e)")
        _add_common(b, with_format=True)
        b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run a verification and emit a JSON report")
    v.add_argument("check", choices=[*_CHECKS, "all"])
    _add_common(v)
    v.add_argument("--seed", type=int, default=0, help="base random seed for aut-sample")
    v.add_argument("--jobs", type=int, default=1, help="ignored: the census runs in one process")
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
