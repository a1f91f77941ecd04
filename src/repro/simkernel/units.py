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


def format_ns(value_ns):
    """Render a duration with a human-friendly unit.

    >>> format_ns(1500)
    '1.500us'
    >>> format_ns(30 * MILLISECOND)
    '30.000ms'
    """
    if value_ns >= SECOND:
        return '%.3fs' % (value_ns / SECOND)
    if value_ns >= MILLISECOND:
        return '%.3fms' % (value_ns / MILLISECOND)
    if value_ns >= MICROSECOND:
        return '%.3fus' % (value_ns / MICROSECOND)
    return '%dns' % value_ns
