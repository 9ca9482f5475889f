"""The benchmark's correctness gate catches a single altered value or byte.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import copy
import hashlib
import json

import pytest

from run import check_pass
from workloads import AtLeast, Call, calls

# A design report as `qgeom verify design --q 3 --e 2` writes it.
DESIGN_REPORT = {
    "check": "design",
    "details": {"expected": [121, 1210, 130, 13, 13], "found": [121, 1210, 130, 13, 13]},
    "elapsed": 1.34,
    "instance": {"e": 2, "gram": "identity", "q": 3, "seed": 0},
    "pass": True,
    "schema": 1,
}


def _design_call():
    return next(c for c in calls("verify-q3", 0) if c.metric == "check.design_s")


def _failed(tmp_path, call, data, exit_code=0):
    if data is not None:
        (tmp_path / call.output).write_bytes(data)
    res = {"calls": [[exit_code, 1.0]], "outdir": str(tmp_path)}
    return check_pass([call], res)[0]


def test_pinned_report_passes(tmp_path):
    assert _failed(tmp_path, _design_call(), json.dumps(DESIGN_REPORT).encode()) == []


ALTERATIONS = [("pass", False)] + [
    (("details", key, i), 14) for key in ("expected", "found") for i in range(5)
]


@pytest.mark.parametrize("where,value", ALTERATIONS)
def test_single_altered_value_fails(tmp_path, where, value):
    report = copy.deepcopy(DESIGN_REPORT)
    if isinstance(where, str):
        report[where] = value
    else:
        report[where[0]][where[1]][where[2]] = value
    failed = _failed(tmp_path, _design_call(), json.dumps(report).encode())
    assert len(failed) == 1 and failed[0][0] == "check.design_s"


def test_nonzero_exit_fails_even_with_pinned_output(tmp_path):
    assert _failed(tmp_path, _design_call(), json.dumps(DESIGN_REPORT).encode(), exit_code=3)


def test_missing_output_fails(tmp_path):
    assert _failed(tmp_path, _design_call(), None)


def test_single_flipped_byte_fails(tmp_path):
    payload = b"~?@?Bkm\n"  # a small graph6 file
    call = Call("export.twisted_s", ("build",), "twisted.g6", hashlib.sha256(payload).hexdigest())
    assert _failed(tmp_path, call, payload) == []
    for i in range(len(payload)):
        flipped = bytearray(payload)
        flipped[i] ^= 1
        assert _failed(tmp_path, call, bytes(flipped)), f"flip at byte {i} passed"


def test_census_cross_checks_must_happen(tmp_path):
    (call,) = calls("census-q2", 0)
    assert call.expect["details"]["cross_checked"] == AtLeast(1)
    details = {k: v for k, v in call.expect["details"].items() if k != "cross_checked"}
    for cross_checked, ok in ((80, True), (1, True), (0, False), (True, False)):
        report = {"pass": True, "details": dict(details, cross_checked=cross_checked)}
        failed = _failed(tmp_path, call, json.dumps(report).encode())
        assert (failed == []) == ok, cross_checked


def test_only_aut_sample_reads_the_seed():
    for workload in ("verify-q3", "export-q4", "census-q2"):
        a, b = calls(workload, 1), calls(workload, 2)
        changed = [x.metric for x, y in zip(a, b) if x != y]
        assert changed == (["check.aut-sample_s"] if workload == "verify-q3" else [])
