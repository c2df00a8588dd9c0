"""Regenerate the golden set and compare it with the recorded files.

On the NumPy build and CPU features of the recording the files must match
byte for byte. Elsewhere the kernels may round differently, so the test
compares parsed content instead: the same structure, text, integers and
strings, and floats within ``RTOL``. A flipped argmin in the outer loop can
still cascade past that tolerance; then record the set on that machine (see
``tests/golden``).
"""

import json
import math
import re
import warnings

import golden

# Relative tolerance of the parsed comparison; the markdown report prints
# 6 significant digits, so its numbers agree to 1e-5 at best.
RTOL = 1e-5
_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _close(a, b, where):
    if isinstance(a, float) and isinstance(b, float):
        ok = a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL)
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), f"{where}: keys differ"
        for key in a:
            _close(a[key], b[key], f"{where}.{key}")
        return
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), f"{where}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}[{i}]")
        return
    else:
        ok = type(a) is type(b) and a == b
    assert ok, f"{where}: {a!r} != {b!r}"


def _parsed(name, text):
    """``text`` as values to compare: JSON documents parsed, other text split at numbers."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    parts = _NUMBER.split(text)
    return {"text": parts, "numbers": [float(n) for n in _NUMBER.findall(text)]}


def test_outputs_match_the_recorded_set(tmp_path):
    recorded = golden.files(golden.FILES)
    assert recorded, "no golden files are recorded"
    golden.generate(tmp_path)
    assert golden.files(tmp_path) == recorded

    exact = golden.fingerprint() == json.loads(golden.FINGERPRINT.read_text())
    mode = "bytes" if exact else f"parsed content within rtol {RTOL:g} (fingerprint differs)"
    print(f"golden comparison: {mode}, {len(recorded)} files")
    if not exact:
        warnings.warn(f"golden outputs compared as {mode}")
    for name in recorded:
        want = (golden.FILES / name).read_text()
        got = (tmp_path / name).read_text()
        if exact:
            assert got == want, f"{name} differs from the recorded bytes"
        else:
            _close(_parsed(name, got), _parsed(name, want), name)
