"""Property test: `mel` and `f0` on any WAV file exit 0 with every CSV value finite, or exit 2 with one
`error:` line, and raise nothing."""

import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402

from test_decode_property import wav_files  # noqa: E402
from test_score_property import run  # noqa: E402


@settings(max_examples=100, deadline=None, derandomize=True)
@given(wav_files(pad=True))
def test_mel_and_f0_exit_0_with_finite_csv_or_2_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.wav")
        with open(path, "wb") as f:
            f.write(data)
        for command in ("mel", "f0"):
            code, out, err = run([command, path])
            if code == 0:
                assert err == "", (command, err)
                lines = out.splitlines()[1 if command == "f0" else 0 :]
                assert lines, command
                values = np.array([float(v) for line in lines for v in line.split(",")])
                assert np.isfinite(values).all(), command
            else:
                assert code == 2, (command, code, err)
                assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (command, err)
