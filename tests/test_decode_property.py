"""Property test: decode_wav returns a finite mono buffer or raises InputError, never anything else."""

import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from agvoice.audio_io import decode_wav  # noqa: E402
from agvoice.errors import InputError  # noqa: E402
from conftest import GUID_TAIL  # noqa: E402

U16 = st.integers(0, 2**16 - 1)
U32 = st.integers(0, 2**32 - 1)


def rarely(draw):
    """True about one time in five."""
    return draw(st.integers(0, 9)) in (3, 7)


@st.composite
def fmt_and_data(draw):
    """A fmt body and a data body that mostly agree: PCM16 or float32 (NaN and inf included), mono or stereo,
    plain or extensible."""
    audio_format, bits = draw(st.sampled_from([(1, 16), (3, 32)]))
    channels = draw(st.sampled_from([1, 2]))
    rate = draw(st.sampled_from([16000, 22050, 48000]))
    if rarely(draw):
        audio_format, bits, channels, rate = draw(st.tuples(U16, U16, U16, U32))
    body = struct.pack("<HHIIHH", audio_format, channels, rate, rate * channels * bits // 8 % 2**32, 4, bits)
    if draw(st.booleans()):  # WAVE_FORMAT_EXTENSIBLE: the tag moves into the SubFormat GUID
        body = struct.pack("<H", 0xFFFE) + body[2:] + struct.pack("<HHIH", 22, bits, 0, audio_format) + GUID_TAIL
    if rarely(draw):
        body = body[: draw(st.integers(0, len(body) - 1))]
    body += draw(st.binary(max_size=4))
    if rarely(draw):
        data = draw(st.binary(max_size=64))
    elif audio_format == 3:
        values = st.floats(width=32) | st.sampled_from([np.nan, np.inf, -np.inf])
        data = np.array(draw(st.lists(values, min_size=1, max_size=32)), dtype="<f4").tobytes()
    else:
        data = np.array(draw(st.lists(st.integers(-32768, 32767), min_size=1, max_size=32)), dtype="<i2").tobytes()
    return body, data


@st.composite
def wav_files(draw):
    """A fmt and a data chunk among others, in any order, with lying sizes and truncation."""
    fmt, data = draw(fmt_and_data())
    others = st.tuples(st.sampled_from([b"LIST", b"fact"]) | st.binary(min_size=4, max_size=4), st.binary(max_size=16))
    parts = draw(st.permutations([(b"fmt ", fmt), (b"data", data)] + draw(st.lists(others, max_size=3))))
    if rarely(draw):
        parts = parts[1:]
    body = b""
    for cid, chunk in parts:
        size = draw(U32) if rarely(draw) else len(chunk)
        body += cid + struct.pack("<I", size) + chunk + b"\x00" * (len(chunk) & 1)
    wav = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    return wav[: draw(st.integers(0, len(wav)))] if rarely(draw) else wav


@settings(max_examples=400, deadline=None, derandomize=True)
@given(wav_files())
def test_decode_wav_raises_only_input_errors(data):
    try:
        buf = decode_wav(data)
    except InputError:
        return
    assert len(buf) > 0
    assert np.isfinite(buf.samples).all() and np.abs(buf.samples).max() <= 1.0
