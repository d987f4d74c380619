"""Judge one response against the expected output written by `inputs.make`.

Each function returns a list of mismatch descriptions; an empty list means
the response is correct.  Outputs are compared in full: embedded images and
engine outputs by digest of every byte, verify reports field by field
against the per-block truth.  Stdout is never parsed, so the text report's
format is free to change; verify is judged by its exit code and its JSON
report, whose fields README documents.
"""

import json

import numpy as np

from inputs import digest


def check_bytes(data, expected_digest):
    return [] if digest(data) == expected_digest else ["output digest differs from the reference"]


def check_verify_report(report, exit_code, truth):
    """Compare a verify report (parsed JSON) and exit code with the truth.

    truth is the (2, by, bx) array saved by `inputs.make`: the tamper mask
    and the distances at threshold 0.
    """
    tampered, distances = truth[0].astype(bool), truth[1]
    by, bx = tampered.shape
    problems = []
    expected = {
        "grid_width": bx,
        "grid_height": by,
        "threshold": 0,
        "total_tampered": int(tampered.sum()),
    }
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append("%s is %r, expected %r" % (key, report.get(key), want))
    for key, want in (("tampered", tampered.ravel()), ("distances", distances.ravel())):
        got = report.get(key)
        if not isinstance(got, list) or len(got) != want.size:
            problems.append("%s is not a list of %d entries" % (key, want.size))
        elif not np.array_equal(np.asarray(got), want):
            problems.append("%s differs from the truth" % key)
    want_exit = 2 if tampered.any() else 0
    if exit_code != want_exit:
        problems.append("exit code %r, expected %d" % (exit_code, want_exit))
    return problems


def check_verify_file(report_path, exit_code, truth):
    try:
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return ["report unreadable: %s" % exc]
    return check_verify_report(report, exit_code, truth)
