"""Timed operations, their checks, and the inputs derived from a seed."""

from __future__ import annotations

import contextlib
import hashlib
import sys
import traceback
from dataclasses import dataclass


@dataclass(frozen=True)
class KnownFault:
    """A fault of the program that makes one call's output wrong on every input.

    It explains a failure when each problem the check reported contains
    one of its `symptoms`.
    """

    name: str
    symptoms: tuple[str, ...]

    def explains(self, problems: list[str]) -> bool:
        return all(any(s in p for s in self.symptoms) for p in problems)


class Batch:
    """One round of a workload: timed program calls and their verdicts.

    `call` times one public call of the program on `clock` (a
    `refclock.RefClock`), in wall and in reference seconds, then runs its check
    outside the timed interval (with tracing paused). An operation
    fails when it raises or its check reports a problem; either way it
    was attempted, so every round attempts the same operations.
    A failure that `known_fault` explains counts in `failed` but not in
    `wrong`, the failures nobody expected; an exception always counts
    in both.
    """

    def __init__(self, clock, tracer=None):
        self.wall = 0.0
        self.ref = 0.0
        self._clock = clock
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._tracer = tracer

    def call(self, what: str, fn, *args, check=None, known_fault=None, **kwargs):
        self.attempted += 1
        wall0, ref0 = self._clock.now()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self._add_time(wall0, ref0)
            self._fail(what, [traceback.format_exc(limit=4)], None)
            return None
        self._add_time(wall0, ref0)
        if check is not None:
            with self.untraced():
                try:
                    problems = check(result)
                except Exception:
                    problems = [traceback.format_exc(limit=4)]
            if problems:
                self._fail(what, problems, known_fault)
        return result

    def _add_time(self, wall0: float, ref0: float) -> None:
        wall1, ref1 = self._clock.now()
        self.wall += wall1 - wall0
        self.ref += ref1 - ref0

    @contextlib.contextmanager
    def untraced(self):
        """Run the benchmark's own work without recording spans."""
        if self._tracer is None:
            yield
        else:
            with self._tracer.paused():
                yield

    def _fail(self, what: str, problems: list[str], known_fault) -> None:
        self.failed += 1
        known = known_fault is not None and known_fault.explains(problems)
        self.wrong += not known
        tag = f"FAILED (known fault: {known_fault.name})" if known else "FAILED"
        for p in problems:
            print(f"{tag} {what}: {p}", file=sys.stderr)


class Inputs:
    """Everything a round feeds the program, derived from (workload, seed, round)."""

    def __init__(self, workload: str, seed: int, round_index: int):
        self.label = f"{workload}/{seed}/{round_index}"

    def key_int(self, *labels) -> int:
        text = "/".join([self.label, *map(str, labels)]).encode()
        return int.from_bytes(hashlib.blake2b(text, digest_size=16).digest(), "big")

    def key_hex(self, *labels) -> str:
        return f"{self.key_int(*labels):032x}"
