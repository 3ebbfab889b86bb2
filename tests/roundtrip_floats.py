"""Check the decimal kernels of ``fnar.floattext`` on random doubles, with a
fresh seed each run, which a failure prints:

- written floats: ``float_rows`` of 10**7 random bit patterns writes ``repr``'s text;
- read floats: ``decimal_values`` reads the texts of another 10**7 (the
  finite ones), and 10**6 ``%.20e`` spellings (21 significant digits, not
  the shortest), as ``float`` does.

    PYTHONPATH=src python tests/roundtrip_floats.py

Exits non-zero at the first mismatch. Its name keeps it out of pytest's
collection: it takes about 45 s on a 2-core x86_64 machine, and each run
draws new doubles.
"""

import secrets
import sys

import numpy as np

from fnar.floattext import decimal_values, float_rows


def written_texts(values) -> list[str]:
    """Each value's text as ``float_rows`` writes it in a one-column table:
    without its NULs (an exponent text holds one inside, which ``write_table``
    drops with the padding) and without the row's "\\r\\n"."""
    text = float_rows(np.asarray(values, dtype=float).reshape(-1, 1))
    return text[text != 0].tobytes().decode().split("\r\n")[:-1]


def read(texts):
    """``decimal_values`` of ``texts``, a line each."""
    data = "".join(text + "\n" for text in texts).encode()
    block = np.zeros(len(data) + 32, np.uint8)
    block[:len(data)] = np.frombuffer(data, np.uint8)
    stop = np.cumsum([len(text) + 1 for text in texts]) - 1
    return decimal_values(block, stop - np.array([len(text) for text in texts]), stop)[0]


def written(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        values = rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64)
        for value, text in zip(values.tolist(), written_texts(values)):
            if text != repr(value):
                sys.exit(f"seed {seed}: {value!r} written as {text!r}")
    print(f"seed {seed}: 10**7 doubles written as repr writes them")


def read_back(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        values = rng.integers(0, 2**64, 500_000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        texts = written_texts(values)
        bad = np.flatnonzero(read(texts).view(np.uint64) != values.view(np.uint64))
        if bad.size:
            sys.exit(f"seed {seed}: {texts[bad[0]]} read as {read(texts)[bad[0]]!r}")
    # non-shortest spellings of 21 significant digits
    values = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    texts = [f"{value:.20e}" for value in values[np.isfinite(values)].tolist()]
    got, want = read(texts), np.array([float(text) for text in texts])
    bad = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    if bad.size:
        sys.exit(f"seed {seed}: {texts[bad[0]]} read as {got[bad[0]]!r}, not {want[bad[0]]!r}")
    print(f"seed {seed}: 10**7 written doubles and {len(texts)} %.20e spellings "
          "read as float reads them")


if __name__ == "__main__":
    written(secrets.randbits(64))
    read_back(secrets.randbits(64))
