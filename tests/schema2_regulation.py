"""Schema 2's terminal-deviation energy, for the verbatim kernels in
``reference_kernels``.

Schema 2 weighed the terminal-speed deviation twice: ``speed_weight`` inside
this energy and ``terminal_weight`` outside it, so the cost added
``terminal_weight * (speed_weight * dv)**2``. Schema 3 folds both into
``cost.terminal_weight``. The kernels keep calling the old signature, which
this module provides with the old arithmetic, so the equivalence tests
compare the package against the schema 2 cost, not against itself.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class RegulationConfig:
    """The schema 2 weight the energy reads."""

    speed_weight: float = 1.0


def regulation_energy(candidate, reference, config: RegulationConfig) -> float:
    """Squared weighted terminal-speed deviation against the reference."""
    x = config.speed_weight * (candidate.states[-1, 1] - reference.states[-1, 1])
    return float(x * x)
