"""The library reports what it reported when `recorded_reports.json` was made.

Floats agree to 1e-10 relative (absolute below 1); iteration counts, exception
classes and messages, selection winners and trace lines agree exactly.  To
record again after an intended change, see `tests/record_reports.py`.
"""

import json

from record_reports import PATH, build_reports

RTOL = 1e-10


def _differences(expected, actual, where):
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            yield f"{where}: keys {sorted(expected)} != {sorted(actual)}"
            return
        for key in expected:
            yield from _differences(expected[key], actual[key], f"{where}/{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            yield f"{where}: length {len(expected)} != {len(actual)}"
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            yield from _differences(e, a, f"{where}[{i}]")
    elif isinstance(expected, float) and isinstance(actual, float):
        if abs(expected - actual) > RTOL * max(1.0, abs(expected)):
            yield f"{where}: {expected!r} != {actual!r}"
    elif type(expected) is not type(actual) or expected != actual:
        yield f"{where}: {expected!r} != {actual!r}"


def test_reports_match_the_recording():
    expected = json.loads(PATH.read_text())
    actual = json.loads(json.dumps(build_reports()))
    differences = list(_differences(expected, actual, "reports"))
    assert not differences, "\n".join(differences[:20])
