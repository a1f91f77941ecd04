"""Discrete-event simulation substrate.

Provides the clock, cancellable event queue, deterministic random
streams, and tracing used by every other subsystem.
"""

from .events import Event, EventQueue
from .rng import RngRegistry
from .sanitizer import (
    Sanitizer,
    SanitizerError,
    Violation,
    install_sanitizer,
)
from .simulation import LivelockError, SimulationError, Simulator
from .tracing import Tracer
from .units import MICROSECOND, MILLISECOND, MS, NS, SEC, SECOND, US

__all__ = [
    'Event',
    'EventQueue',
    'MICROSECOND',
    'MILLISECOND',
    'MS',
    'NS',
    'LivelockError',
    'RngRegistry',
    'SEC',
    'Sanitizer',
    'SanitizerError',
    'SECOND',
    'SimulationError',
    'Simulator',
    'Violation',
    'install_sanitizer',
    'Tracer',
    'US',
]
