"""Zero-knowledge proof-of-location statement library and protocol simulator.

Subpackages:
    field      prime-field parameters and the bit-width ledger
    circuit    visibility-tagged constraint system builder / checker
    gadgets    reusable circuit fragments (range check, sqrt, hash, geometry)
    poseidon   Poseidon-style permutation parameters
    localcalc  prover-local helper computations and plaintext oracles
    statements the EV-subsidy and highway-tax proof statements
    protocol   Witness / Prover / Verifier session model with signatures
    appio      JSON formats, fixture generation, corridor triangulation
    cli        command-line driver
"""

from .field import FieldParams
from .circuit import ConstraintSystem, Domain, SatisfactionReport

__version__ = "0.1.0"

__all__ = [
    "FieldParams",
    "ConstraintSystem",
    "Domain",
    "SatisfactionReport",
    "__version__",
]
