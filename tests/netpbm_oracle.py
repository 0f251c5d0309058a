"""Reference P2 sample decoder for the numpy decoder in `inkchannel.imagery`.

This is the token-at-a-time loop that decoded every P2 payload before the
numpy decoder existed; that decoder now passes only the tokens its digit
table cannot read through `int()`.  The differential test holds the two to
the same samples and, for a payload either refuses, to the same
`NetpbmError` message.
"""

import re

import numpy as np

from inkchannel import NetpbmError

_COMMENT = re.compile(rb"#[^\n]*")


def _sample(tok: bytes) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise NetpbmError(f"malformed payload sample {tok!r}") from None
    if not 0 <= v <= 255:
        raise NetpbmError(f"malformed payload sample {v} (out of 0..255)")
    return v


def gray_payload(text: bytes, count: int) -> np.ndarray:
    """The first ``count`` whitespace-separated samples of ``text``, comments removed."""
    vals = list(map(_sample, _COMMENT.sub(b" ", text).split()[:count]))
    if len(vals) < count:
        raise NetpbmError(f"truncated payload: expected {count} samples, got {len(vals)}")
    return np.array(vals, dtype=np.uint8)
