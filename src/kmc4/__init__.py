"""Degree-sequence thresholds for the complete graph minus a 4-cycle.

Decide whether a graphical degree sequence has a realization containing
K_m with a 4-cycle of edges removed, compute the exact threshold sums
by exhaustive sweep at small n, and machine-check the closed-form lower
bound, the m=5 equality (with a constructive proof replay), and the
conjectured equality for larger m.
"""

from __future__ import annotations

from .errors import InputError, ReplayError
from .extremal import (DEFAULT_VERTEX_LIMIT, SigmaReport, Theorem1Report,
                       extremal_witness, sigma_exact, sigma_lower_bound,
                       verify_conjecture, verify_theorem1)
from .graphs import (SmallGraph, complete_graph, empty_graph, encode_graph6,
                     join, km_minus_c4)
from .realizations import WitnessResult, havel_hakimi_realize, is_potentially
from .sequences import (DegreeSequence, graphical_sequences_with_sum,
                        is_graphical)

__version__ = "0.1.0"

# Names of ``proof_replay``, the largest module: the replay, its trace
# records and its two verify drivers, which return plain entry dicts.
# Only they need that module, so it is imported on the first access to
# any of them (PEP 562), and that access binds them all here.
_REPLAY_NAMES = ("ProofStep", "ProofTrace", "replay_theorem2",
                 "verify_base_cases", "verify_theorem2_range")


def __getattr__(name: str):
    if name not in _REPLAY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import proof_replay

    for replay_name in _REPLAY_NAMES:
        globals()[replay_name] = getattr(proof_replay, replay_name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_REPLAY_NAMES))

__all__ = [
    "DEFAULT_VERTEX_LIMIT",
    "DegreeSequence",
    "InputError",
    "ProofStep",
    "ProofTrace",
    "ReplayError",
    "SigmaReport",
    "SmallGraph",
    "Theorem1Report",
    "WitnessResult",
    "complete_graph",
    "empty_graph",
    "encode_graph6",
    "extremal_witness",
    "graphical_sequences_with_sum",
    "havel_hakimi_realize",
    "is_graphical",
    "is_potentially",
    "join",
    "km_minus_c4",
    "replay_theorem2",
    "sigma_exact",
    "sigma_lower_bound",
    "verify_base_cases",
    "verify_conjecture",
    "verify_theorem1",
    "verify_theorem2_range",
    "__version__",
]
