"""Numerical toolkit for temporal Lorentzian spectral geometry at desk scale.

Subpackages cover: gamma-matrix Clifford algebra with a distinguished
anti-Hermitian time direction (``clifford``), small periodic/clamped lattices
with spectral-friendly calculus (``lattice``), lattice Dirac operators and
the temporal axiom suite (``dirac``), steep-function certification
(``steepness``), causal distance formulas (``distance``), star products with
three independent engines (``moyal``), filtered algebras of time-weighted
symbols with pure-state extension (``filtration``), a tiny expression
language (``expressions``), and a deterministic CLI (``cli``).
"""

from . import (checks, clifford, dirac, distance, expressions, filtration,
               lattice, moyal, steepness)

__version__ = "0.1.0"
