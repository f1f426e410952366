"""Locality analysis and optimality certification for linear codes.

The package computes the minimum linear locality of a linear code over a
finite field, certifies distance- and dimension-optimality of the resulting
locally recoverable code, builds a catalog of code families with known
locality behavior (Hamming/simplex, cyclic and BCH, generalized Reed-Muller,
ovoid, maximal-arc and hyperoval codes), and verifies the combinatorial
designs held by fixed-weight codeword supports.
"""

__version__ = "0.1.0"

# cli is left out: importing it here would make ``python -m
# locality_lab.cli`` find the module already loaded and warn; ``from
# locality_lab import cli`` still works
from . import code_core, constructions, designs, errors, gf, locality

__all__ = ["cli", "code_core", "constructions", "designs", "errors", "gf",
           "locality", "__version__"]
