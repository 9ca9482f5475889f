"""The benchmark's workloads and the pinned outputs that gate them.

A pass of a workload is a list of qgeom CLI calls, each one
``qgeom.cli.main(argv + ["--out", path])``.  After the pass, every call
is judged: a non-zero exit code or an output that differs from the
pinned value makes the call fail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class AtLeast:
    """Pinned lower bound, for a count that may grow but must not vanish."""

    n: int


@dataclass(frozen=True)
class Call:
    metric: str  # name under which the call's time is reported
    argv: tuple  # arguments for qgeom.cli.main, without --out
    output: str  # file name the call writes through --out
    expect: object  # pinned report subset (verify), or SHA-256 hex of the file (build)
    elements: int = 0  # stabilizer elements the call verifies


def _verify(check, q, e, expect, elements=0, extra=()):
    return Call(
        f"check.{check}_s",
        ("verify", check, "--q", str(q), "--e", str(e), *extra),
        f"{check}.json",
        {"pass": True, "details": expect},
        elements,
    )


def _export(kind, fmt, suffix, sha256):
    return Call(
        f"export.{kind}_s",
        ("build", kind, "--q", "4", "--e", "2", "--format", fmt),
        f"{kind}.{suffix}",
        sha256,
    )


_DESIGN_Q3 = [121, 1210, 130, 13, 13]
_SPECTRUM_Q3 = {"1": 637065, "4": 94380}
_ARRAY_Q3 = {"b": [156, 108], "c": [1, 16], "diameter": 2}
_CENSUS_ORDER = 322560


def calls(workload: str, seed: int) -> list[Call]:
    """The calls of one pass, in order.  Only aut-sample reads the seed."""
    if workload == "verify-q3":
        # The `verify all` check list at (3,2), in its order.
        return [
            _verify("design", 3, 2, {"expected": _DESIGN_Q3, "found": _DESIGN_Q3}),
            _verify("spectrum", 3, 2, {"support": [1, 4], "jt": _SPECTRUM_Q3, "pg": _SPECTRUM_Q3}),
            _verify("thm1", 3, 2, {"vertices": 1210, "threshold": 4}),
            _verify("drg", 3, 2, {"twisted": _ARRAY_Q3, "grassmann": _ARRAY_Q3}),
            _verify("prank", 3, 2, {"p": 3, "jt_rank": 61, "pg_rank": 61}),
            _verify(
                "aut-sample", 3, 2, {"sampled": 100, "failures": []},
                elements=100, extra=("--seed", str(seed)),
            ),
        ]
    if workload == "export-q4":
        return [
            _export("twisted", "graph6", "g6",
                    "951d810a84dc14bae50c8b437d857e2631abd5d47f88c393b2a36db959925594"),
            _export("jt-design", "incidence-csv", "csv",
                    "1b0efe66ebbd3c11537771d5d598a1e1d9a845cb7bafcd6ec8fffaf30f05cec0"),
            _export("pg-design", "json", "json",
                    "a45f5b11550cdb7e4145e5115d77128c90358e678f582f34efd97fc687dad181"),
        ]
    if workload == "census-q2":
        census = {
            "group_order": _CENSUS_ORDER,
            "verified": _CENSUS_ORDER,
            "distinct": _CENSUS_ORDER,
            "identity_count": 1,
            "failures": [],
            "cross_checked": AtLeast(1),
        }
        return [
            _verify(
                "aut-exhaustive", 2, 2, census,
                elements=_CENSUS_ORDER, extra=("--jobs", "1"),
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-q3", "export-q4", "census-q2")


def mismatches(expected, got, where: str = "report") -> list[str]:
    """Every place where `got` differs from the pinned subset `expected`."""
    if isinstance(expected, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected an object, found {got!r}"]
        out = []
        for key, want in expected.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                out.extend(mismatches(want, got[key], f"{where}.{key}"))
        return out
    if isinstance(expected, AtLeast):
        ok = isinstance(got, int) and not isinstance(got, bool) and got >= expected.n
        return [] if ok else [f"{where}: expected at least {expected.n}, found {got!r}"]
    # bool is an int in Python; True must not pass for 1 or the reverse.
    if got != expected or type(got) is not type(expected):
        return [f"{where}: expected {expected!r}, found {got!r}"]
    return []


def judge(call: Call, exit_code: int, data: bytes | None) -> list[str]:
    """Why the call failed, given its exit code and the bytes it wrote; empty if it passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    if data is None:
        return problems + [f"{call.output} was not written"]
    if isinstance(call.expect, str):
        # Imported here: workers import this module for calls() alone, and
        # hashlib would add OpenSSL to the peak RSS they measure.
        import hashlib

        digest = hashlib.sha256(data).hexdigest()
        if digest != call.expect:
            problems.append(f"{call.output}: sha256 {digest}, pinned {call.expect}")
        return problems
    try:
        report = json.loads(data)
    except ValueError as exc:
        return problems + [f"{call.output}: not JSON ({exc})"]
    return problems + mismatches(call.expect, report)
