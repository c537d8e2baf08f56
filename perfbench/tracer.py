"""In-memory spans around calls into frobstat's public functions.

A span is [name, start, end, parent, attr]: perf_counter seconds, the index
of the enclosing span (None at top level) and one value the target chose to
note about the call (a prime, a thread count, a result size).  Spans stay in
memory until the run ends and are written out once.

Tracing works by rebinding a function object under every name it is bound
to in the loaded frobstat modules (and, for methods, in the class dict), so
calls the package makes between its own modules are seen too.  Nothing on
disk changes, and `uninstall` restores every binding.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

_clock = time.perf_counter


@dataclass(frozen=True)
class Target:
    """One traced function.

    owner/attr locate the function (`owner` is a module or a class).
    `name` is the span name, or a callable (args, kwargs) -> name.
    `note` picks the span's attr from (args, kwargs, result).
    `quiet_inner` (args, kwargs) -> bool suspends tracing for the duration
    of the call, so forked pool workers inherit a tracer that records
    nothing and costs one flag test per call.
    """

    owner: Any
    attr: str
    name: Any
    note: Optional[Callable] = None
    quiet_inner: Optional[Callable] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = False
        self._restore: list[tuple[Any, str, Any]] = []

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attr=None) -> None:
        span = self.spans[idx]
        span[2] = _clock()
        span[4] = attr
        self._stack.pop()

    def _wrap(self, fn, target: Target):
        tracer = self
        name, note, quiet = target.name, target.note, target.quiet_inner

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            attr = None
            mute = quiet is not None and quiet(args, kwargs)
            if mute:
                tracer.recording = False
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    attr = note(args, kwargs, result)
                return result
            finally:
                if mute:
                    tracer.recording = True
                tracer.close(idx, attr)

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    # -- installation

    def install(self, targets: list[Target]) -> None:
        """Rebind every target under each name it has in frobstat's modules."""
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == "frobstat" or k.startswith("frobstat."))
        ]
        for target in targets:
            fn = target.owner.__dict__[target.attr]
            wrapper = self._wrap(fn, target)
            owners = modules if isinstance(target.owner, type(sys)) else [target.owner]
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._restore.append((owner, key, value))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- analysis

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attr) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent, "attr": attr},
                    separators=(",", ":"),
                ))
                fh.write("\n")
