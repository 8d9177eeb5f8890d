"""Schmidt-mode analysis of interfering quantum states.

The modules cover shared numerics (grids, quadrature, the caps on counts),
multi-slit interference with a which-way detector, Schmidt
decomposition and information measures, visibility/coherence coupling,
double-well tunneling with the ammonia application (two-level closed forms
checked against sinc-DVR levels), and SVD-based measurement-protocol
analysis with the closed-form range of qubit completions.  Importing the
package loads none of them: a module is imported by name, as in
``from qmodes import schmidt``.  The ``qmodes`` command-line tool reproduces
the reference figure data; see ``qmodes list``.  The package needs numpy and
the standard library only.

A value is checked where it enters: a flag, a config line, a field of
``SlitParams`` or ``DoubleWell``, or a cap on a count or grid size.  Past
that, a check guards only a limit the computation alone can detect, such
as unresolved fringes, a failed fit or inadequate data.  A function does
not re-check a value that another qmodes function computed for it, so
weights, visibilities and protocol shapes are taken as given.  Every
exception class the package defines subclasses ``ValueError``, which the
CLI prints as one error line before it exits with code 2.
"""
