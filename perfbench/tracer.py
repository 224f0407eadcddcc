"""Timed wrappers around the public functions of each roadcount layer.

The wrappers are installed from outside the package: every roadcount module
attribute that holds a traced function (including the aliases other modules
import, such as ``roadcount.cli.load_pgm``) is replaced by one timed wrapper.
Each call records its duration and its self time, which is the duration
minus the time spent in traced calls nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = (
    ("roadcount.imaging", "load_pgm"),
    ("roadcount.imaging", "downscale"),
    ("roadcount.imaging", "integral"),
    ("roadcount.features", "mb_lbp_code_map"),
    ("roadcount.features", "mb_lbp_histogram"),
    ("roadcount.features", "build_rank_table"),
    ("roadcount.boostcascade", "detect"),
    ("roadcount.boostcascade", "window_features"),
    ("roadcount.boostcascade", "train_strong"),
    ("roadcount.boostcascade", "strong_classify"),
    ("roadcount.boostcascade", "calibrate_stage"),
    ("roadcount.boostcascade", "load_model"),
    ("roadcount.bgsub", "subtract"),
    ("roadcount.bgsub", "morphological_open"),
    ("roadcount.bgsub", "extract_blobs"),
    ("roadcount.bgsub", "update_background"),
    ("roadcount.tracking", "Tracker.__init__"),
    ("roadcount.tracking", "Tracker.step"),
    ("roadcount.tracking", "Tracker.flush"),
    ("roadcount.counting", "should_count"),
    ("roadcount.counting", "make_report"),
    ("roadcount.synthgen", "generate_scene"),
    ("roadcount.synthgen", "generate_training_set"),
)

# What a call's result adds to its function's `results` counter.
RESULT_COUNTERS = {
    "boostcascade.detect": len,
    "bgsub.extract_blobs": len,
    "tracking.Tracker.step": lambda result: len(result[1]),
    "tracking.Tracker.flush": len,
    "counting.should_count": lambda result: int(bool(result[0])),
}

# Functions whose every call duration is kept, for percentiles.
KEEP_DURATIONS = ("boostcascade.detect",)


def patch(module_name: str, attr: str, make_wrapper) -> None:
    """Replace a function by make_wrapper(function) wherever roadcount holds it.

    `attr` is a module-level name or "Class.method". Every loaded roadcount
    module attribute bound to the same function object is replaced, so
    aliases made by `from .module import name` are covered too. A target
    that does not exist is skipped, and its metrics read 0.
    """
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is not None:
            setattr(owner, name, make_wrapper(original))
        return
    original = getattr(module, name, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "roadcount" or mod_name.startswith("roadcount.")):
            continue
        for alias, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, alias, wrapper)


class Stat:
    """Calls, busy and self seconds, and result counts of one traced function."""

    def __init__(self, layer: str, keep_durations: bool):
        self.layer = layer
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.layer_busy = 0.0  # busy time not nested in a span of the same layer
        self.outer_busy = 0.0  # busy time not nested in any span
        self.results = 0
        self.durations: list[float] | None = [] if keep_durations else None
        self.self_times: list[float] | None = [] if keep_durations else None

    def as_dict(self) -> dict:
        """A snapshot: later calls do not change it."""
        return {key: list(value) if isinstance(value, list) else value
                for key, value in vars(self).items()}


class Tracer:
    """Installs the wrappers and accumulates one Stat per traced function."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []  # [child seconds, layer] per open span

    def _wrap(self, key: str, fn):
        layer = key.split(".")[0]
        stat = Stat(layer, keep_durations=key in KEEP_DURATIONS)
        self.stats[key] = stat
        result_count = RESULT_COUNTERS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0, layer]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - frame[0]
                if parent is None:
                    stat.outer_busy += dt
                else:
                    parent[0] += dt
                if parent is None or parent[1] != layer:
                    stat.layer_busy += dt
                if stat.durations is not None:
                    stat.durations.append(dt)
                    stat.self_times.append(dt - frame[0])
            if result_count is not None:
                stat.results += result_count(result)
            return result

        return timed

    def install(self) -> None:
        for module_name, attr in TARGETS:
            key = module_name.split(".", 1)[1] + "." + attr
            patch(module_name, attr, lambda fn, key=key: self._wrap(key, fn))

    @staticmethod
    def call_cost(calls: int = 50000) -> float:
        """Seconds a wrapper adds to one call, measured on a function doing nothing."""

        def noop():
            return None

        wrapped = Tracer()._wrap("probe.noop", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        plain = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        return max(clock() - t0 - plain, 0.0) / calls

    def summary(self) -> dict:
        """Plain-data form of every Stat, for the parent process."""
        return {key: stat.as_dict() for key, stat in self.stats.items()}
