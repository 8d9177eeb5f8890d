"""Schmidt-mode analysis of interfering quantum states.

The modules cover shared numerics (grids, quadrature, Hermitian eigh),
multi-slit interference with a which-way detector, Schmidt
decomposition and information measures, visibility/coherence coupling,
double-well tunneling with the ammonia application (two-level closed forms
checked against sinc-DVR levels), and SVD-based measurement-protocol
analysis with the closed-form range of qubit completions.  Importing the
package loads none of them: a module is imported by name, as in
``from qmodes import schmidt``.  The ``qmodes`` command-line tool reproduces
the reference figure data; see ``qmodes list``.  The package needs numpy and
the standard library only.
"""
