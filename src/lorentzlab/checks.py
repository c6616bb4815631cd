"""The verdict record every check suite returns and the CLI renders."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One named verdict with a human-readable measurement."""

    name: str
    passed: bool
    detail: str = ""
