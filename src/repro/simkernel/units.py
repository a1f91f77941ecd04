"""Time units for the simulator.

All simulation time is expressed as integer nanoseconds. Using integers
keeps event ordering exact and runs reproducible: there is no floating
point drift when quanta are split by preemptions.
"""

NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

# Short aliases used pervasively in scheduler code.
NS = NANOSECOND
US = MICROSECOND
MS = MILLISECOND
SEC = SECOND

