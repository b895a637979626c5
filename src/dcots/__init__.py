"""DC optimal transmission switching toolkit.

Cycle-based formulations of the DC power flow equations, convex-hull
inequalities for the single-cycle switching relaxation, a branch-and-cut
solver built on an in-repo bounded-variable simplex, and brute-force
polyhedral checks that verify the mathematical claims at desk scale.
"""

from dcots.network import (
    Bus,
    Generator,
    Line,
    PowerNetwork,
    build_network,
    parse_matpower,
    parse_native,
    serialize_native,
    validate,
)

__all__ = [
    "Bus",
    "Generator",
    "Line",
    "PowerNetwork",
    "build_network",
    "parse_matpower",
    "parse_native",
    "serialize_native",
    "validate",
]

__version__ = "0.1.0"
