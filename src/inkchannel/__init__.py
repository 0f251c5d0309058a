"""Halftoning through a binary noisy printing channel.

Grayscale images are halftoned, sent through configurable controlled-gate
noise (bit-flip, erase, block erase), and judged by entropy, Euclidean
distance, and relative entropy; the robustness harness sweeps algorithms,
images, and noise powers reproducibly.

The package binds every name in each module's ``__all__``, so ``inkchannel.halftone``
is the function; its module's names are read as ``from inkchannel.halftone import ...``.
"""

from .imagery import *
from .halftone import *
from .channel import *
from .metrics import *
from .robustness import *

__version__ = "0.1.0"
