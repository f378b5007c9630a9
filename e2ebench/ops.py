"""The unit of measured work."""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


class Op(NamedTuple):
    """One timed call into torcob and the independent check of its result.

    ``run`` takes no arguments and returns the program's answer; ``check``
    gets that answer, outside the timers, and returns whether it is right.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
