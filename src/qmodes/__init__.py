"""Schmidt-mode analysis of interfering quantum states.

Subpackages cover shared numerics (grids, quadrature, Hermitian eigh),
multi-slit interference with a which-way detector, Schmidt
decomposition and information measures, visibility/coherence coupling,
double-well tunneling with the ammonia application (two-level closed forms
checked against sinc-DVR levels), and SVD-based measurement-protocol
analysis with the closed-form range of qubit completions.  The ``qmodes`` command-line tool reproduces
the reference figure data; see ``qmodes list``.  The package needs numpy and
the standard library only.
"""

from . import coherence, interference, numerics, scenarios, schmidt, tomography, tunneling

__all__ = [
    "numerics",
    "interference",
    "schmidt",
    "coherence",
    "tunneling",
    "tomography",
    "scenarios",
]

__version__ = "0.1.0"
